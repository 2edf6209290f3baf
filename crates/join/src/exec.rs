//! The pipelined, zero-communication parallel executor.
//!
//! Execution follows §3 of the paper: every worker repeatedly draws a
//! **morsel** — a fixed-size contiguous chunk of the driver relation
//! (step 0 of the left-deep plan) — from a single atomic cursor, then
//! runs the *entire* pipeline for that morsel against the read-only
//! store, probing each subsequent replica with the adaptive search of
//! Algorithm 1 using its own per-step cursors. Workers share nothing
//! mutable: no exchange, no queues, no rehashing, no termination
//! protocol ("parallel execution without any form of communication or
//! synchronization between the workers"). Morsel-driven dispatch
//! (fixed [`ExecOptions::morsel_size`], default 16 384 driver keys)
//! means skewed key ranges never pin one worker while its siblings
//! idle: the next chunk always goes to whichever worker frees up first.
//!
//! There is one way in, [`execute`], and one dispatch rule: the
//! submitting thread resolves the plan once into a shared, read-only
//! run and always participates; when the caller hands over a
//! [`WorkerPool`](crate::WorkerPool) and the driver spans more than one
//! morsel, up to `min(threads − 1, morsels − 1)` idle pool workers join
//! it on the same cursor, each holding a clone of the run's `Arc`.
//! Everything else — no pool, one thread, one morsel — runs the same
//! participant body inline on the calling thread and never touches the
//! pool. No threads are created per query.
//!
//! Results are **deterministic**: each participant keeps one sink per
//! morsel it ran, and the coordinator concatenates sinks in morsel
//! order. Morsel order is driver-domain order, so the merged output is
//! byte-identical no matter how many workers ran or how morsels
//! interleaved — pinned by the facade determinism suite.
//!
//! The driver domain is either the keys array of the first replica
//! (Example 3.1) or, when the first pattern has a constant key, the
//! value vector of that key's group (Example 3.2) — which is how highly
//! selective queries still parallelize.

use parj_sync::atomic::{AtomicUsize, Ordering};
use parj_sync::Arc;
use std::panic::AssertUnwindSafe;

use parj_dict::Id;
use parj_store::{
    DeltaOverlay, Group, GroupIter, MergedGroup, MergedIter, Replica, ReplicaView, StoreView,
    TripleStore,
};

use crate::guard::{GuardTrip, QueryGuard, GUARD_BATCH};
use crate::plan::{CompiledStep, DriverMode, DriverValue, KeyMode, PhysicalPlan, ValueMode, VarId};
use crate::pool::WorkerPool;
use crate::search::{adaptive_search, ProbeStrategy};
use crate::stats::SearchStats;
use crate::threshold::ThresholdTable;

/// Aggregated internals of one plan execution, handed to a
/// [`Recorder`] after the workers finish. Plain borrowed data: the
/// recorder decides what to keep, the executor allocates nothing extra
/// for runs without one.
#[derive(Debug, Clone, Copy)]
pub struct ExecRecord<'a> {
    /// Result rows emitted (summed across workers).
    pub result_rows: u64,
    /// `step_rows[d]` = binding tuples entering probe step `d`;
    /// `step_rows[num_probe_steps]` = result rows emitted.
    pub step_rows: &'a [u64],
    /// Search counters per probe step (parallel to the plan's probe
    /// steps), merged across workers.
    pub step_search: &'a [SearchStats],
    /// Driver-side counters (group membership checks of Example 3.2
    /// style drivers).
    pub driver_search: SearchStats,
    /// All counters merged — probe steps plus driver.
    pub total_search: SearchStats,
    /// Work units per participating worker (rows emitted + array words
    /// touched): the load-balance signal of the morsel distribution.
    /// Under dynamic morsel pulling these converge toward uniform even
    /// on skewed drivers. Empty when the run failed before workers
    /// reported.
    pub worker_units: &'a [u64],
    /// Driver morsels actually executed (pulled off the shared cursor
    /// and run) across all workers.
    pub morsels: u64,
}

/// Receives per-execution internals (once per [`execute`] call, after
/// the join completes or fails). Implementations must be cheap and
/// lock-light: the engine's metrics registry is the intended consumer.
///
/// This is the executor's entire observability surface — when
/// [`ExecOptions::recorder`] is `None`, the only residual cost is
/// moving per-worker vectors the worker loop already maintains.
pub trait Recorder: Send + Sync {
    /// Called once per plan execution with the aggregated internals.
    fn record_exec(&self, record: &ExecRecord<'_>);
}

/// Default driver-morsel size, in driver keys (~16K): large enough
/// that the shared-cursor `fetch_add` and per-morsel sink swap are
/// noise, small enough that skewed key ranges split across workers.
pub const DEFAULT_MORSEL_SIZE: usize = 16_384;

/// Why [`ExecOptions::validate`] rejected a set of options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOptionsError {
    /// `threads` was zero — the executor needs at least one worker.
    ZeroThreads,
    /// `morsel_size` was zero — workers cannot pull empty morsels.
    ZeroMorselSize,
}

impl std::fmt::Display for ExecOptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecOptionsError::ZeroThreads => write!(f, "threads must be at least 1"),
            ExecOptionsError::ZeroMorselSize => {
                write!(f, "morsel_size must be at least 1")
            }
        }
    }
}

impl std::error::Error for ExecOptionsError {}

/// Execution options.
#[derive(Clone)]
pub struct ExecOptions {
    /// Participants wanted: the submitting thread plus up to
    /// `threads − 1` helpers from the [`WorkerPool`](crate::WorkerPool)
    /// handed to [`execute`] (without a pool every run is inline). In
    /// the paper "each worker corresponds exactly to one thread"; the
    /// optimum on their machine was 2× the core count (hyper-threading,
    /// §5.1). Must be ≥ 1 ([`ExecOptions::validate`]).
    pub threads: usize,
    /// Driver keys per morsel. Workers pull fixed-size contiguous
    /// chunks of this many driver keys off a shared atomic cursor;
    /// smaller morsels smooth load imbalance between skewed key ranges
    /// at the cost of more cursor traffic and per-morsel sink swaps.
    /// Must be ≥ 1. Results are byte-identical for every value — only
    /// scheduling granularity changes.
    pub morsel_size: usize,
    /// Probe strategy (Table 5's four columns).
    pub strategy: ProbeStrategy,
    /// Lifecycle guard shared by all workers of this run (cancellation,
    /// deadline, row budget). `None` runs unguarded — the executor still
    /// installs a private guard internally so a panicking worker stops
    /// its siblings.
    pub guard: Option<Arc<QueryGuard>>,
    /// Observer for per-execution internals; `None` skips all recording
    /// work beyond moving vectors the workers maintain anyway.
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("threads", &self.threads)
            .field("morsel_size", &self.morsel_size)
            .field("strategy", &self.strategy)
            .field("guard", &self.guard)
            .field("recorder", &self.recorder.as_ref().map(|_| "Recorder"))
            .finish()
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            morsel_size: DEFAULT_MORSEL_SIZE,
            strategy: ProbeStrategy::default(),
            guard: None,
            recorder: None,
        }
    }
}

impl ExecOptions {
    /// Options with `threads` workers and defaults otherwise.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Checks that `threads` and `morsel_size` are at least 1. The
    /// executor runs this check before anything else and fails with
    /// [`ExecFailureKind::InvalidOptions`] instead of clamping.
    pub fn validate(&self) -> Result<(), ExecOptionsError> {
        if self.threads == 0 {
            return Err(ExecOptionsError::ZeroThreads);
        }
        if self.morsel_size == 0 {
            return Err(ExecOptionsError::ZeroMorselSize);
        }
        Ok(())
    }
}

/// Why an execution stopped before completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecFailureKind {
    /// The guard's cancel token was tripped externally.
    Cancelled,
    /// The guard's wall-clock deadline passed.
    DeadlineExceeded {
        /// Time elapsed since the guard was armed.
        elapsed: std::time::Duration,
    },
    /// The guard's result-row budget was exhausted.
    BudgetExceeded {
        /// Rows counted when the budget tripped.
        rows: u64,
    },
    /// A worker panicked; the panic was contained and sibling workers
    /// were cancelled. The store is read-only during execution, so it
    /// remains fully usable afterwards.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The supplied [`ExecOptions`] were invalid (zero threads or
    /// morsel size; see [`ExecOptions::validate`]). Raised instead of
    /// panicking.
    InvalidOptions {
        /// What was wrong with the options.
        message: String,
    },
}

impl ExecFailureKind {
    fn from_trip(trip: GuardTrip) -> Self {
        match trip {
            GuardTrip::Cancelled => ExecFailureKind::Cancelled,
            GuardTrip::DeadlineExceeded { elapsed } => {
                ExecFailureKind::DeadlineExceeded { elapsed }
            }
            GuardTrip::BudgetExceeded { rows } => ExecFailureKind::BudgetExceeded { rows },
        }
    }

    /// Panic > budget > deadline > cancel: when workers report
    /// different trips (e.g. a panic cancels siblings, who then report
    /// `Cancelled`), the most specific cause wins deterministically.
    fn severity(&self) -> u8 {
        match self {
            ExecFailureKind::Cancelled => 0,
            ExecFailureKind::DeadlineExceeded { .. } => 1,
            ExecFailureKind::BudgetExceeded { .. } => 2,
            ExecFailureKind::WorkerPanicked { .. } => 3,
            ExecFailureKind::InvalidOptions { .. } => 4,
        }
    }
}

/// An execution that stopped early, with the partial progress made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecFailure {
    /// What stopped the run.
    pub kind: ExecFailureKind,
    /// Search counters merged from the workers that returned.
    pub stats: SearchStats,
    /// Result rows credited to the guard before the stop (overshoots
    /// the budget by at most `threads × GUARD_BATCH`).
    pub rows: u64,
}

impl std::fmt::Display for ExecFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ExecFailureKind::Cancelled => write!(f, "query cancelled after {} rows", self.rows),
            ExecFailureKind::DeadlineExceeded { elapsed } => {
                write!(
                    f,
                    "query deadline exceeded after {elapsed:.2?} ({} rows)",
                    self.rows
                )
            }
            ExecFailureKind::BudgetExceeded { rows } => {
                write!(f, "query result budget exceeded at {rows} rows")
            }
            ExecFailureKind::WorkerPanicked { message } => {
                write!(f, "query worker panicked: {message}")
            }
            ExecFailureKind::InvalidOptions { message } => {
                write!(f, "invalid execution options: {message}")
            }
        }
    }
}

impl std::error::Error for ExecFailure {}

/// Result of a guarded execution.
pub type ExecResult<T> = Result<T, Box<ExecFailure>>;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Receives result rows on a worker thread. One sink exists per worker;
/// they are merged (or summed) after the join, which is exactly the
/// paper's "silent mode" aggregation model.
pub trait Sink {
    /// Called once per result row with the projected bindings.
    fn push(&mut self, row: &[Id]);
}

/// Counts rows — the paper's silent mode.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountSink {
    /// Rows seen.
    pub count: u64,
}

impl Sink for CountSink {
    #[inline]
    fn push(&mut self, _row: &[Id]) {
        self.count += 1;
    }
}

/// Materializes rows into a flat buffer (`arity` ids per row).
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    /// Flattened row-major results.
    pub data: Vec<Id>,
    /// Rows pushed. For projections of arity ≥ 1 this equals
    /// `data.len() / arity`; for arity-0 projections (ASK-style
    /// shapes) the flat buffer stays empty and this counter is the
    /// only record of how many rows the worker produced.
    pub rows: u64,
}

impl Sink for CollectSink {
    #[inline]
    fn push(&mut self, row: &[Id]) {
        self.data.extend_from_slice(row);
        self.rows += 1;
    }
}

/// One probe step as a participant sees it, borrowed from the [`Run`].
struct StepCtx<'a> {
    /// Probe source: the untouched/compacted CSR replica (the
    /// zero-overhead hot path) or the base replica plus resident
    /// delta runs that every probe merges on the fly.
    source: ReplicaView<'a>,
    threshold: i64,
    mode: CompiledStep,
}

/// Step 0 as a participant sees it, borrowed from the [`Run`].
enum ResolvedDriver<'a> {
    /// Key scan over `source`'s key domain: its keys array when clean;
    /// over a delta-dirtied predicate, the run's materialized key union
    /// of base and add runs. Keys whose whole group was tombstoned
    /// still appear — their merged group is empty, so they emit nothing
    /// and only pad the scan domain.
    Keys {
        source: ReplicaView<'a>,
        keys: &'a [Id],
        bind_key: VarId,
        value: DriverValue,
    },
    /// Group scan over a clean raw group or the run's materialized one.
    Group {
        group: &'a [Id],
        bind_value: VarId,
    },
    Exist {
        present: bool,
    },
}

/// One key's value group at a probe target: a clean replica's own
/// [`Group`], or the [`MergedGroup`] of base and resident runs. The
/// probe step and the key-driver loop are written once over this trait
/// and instantiated for both, so the clean instance carries no delta
/// branch.
trait ValueGroup<'a>: Copy {
    type Values: Iterator<Item = Id>;
    /// True when the key has no base and no added values.
    fn absent(&self) -> bool;
    /// The values in increasing order.
    fn values(self) -> Self::Values;
    /// Membership of `v`, counting each run searched as a group probe.
    fn probe(&self, v: Id, stats: &mut SearchStats) -> bool;
}

impl<'a> ValueGroup<'a> for Group<'a> {
    type Values = GroupIter<'a>;

    #[inline]
    fn absent(&self) -> bool {
        self.is_empty()
    }

    #[inline]
    fn values(self) -> GroupIter<'a> {
        self.iter()
    }

    /// Binary search on raw groups, start compare plus early-exit
    /// delta prefix sum on block-compressed ones.
    #[inline]
    fn probe(&self, v: Id, stats: &mut SearchStats) -> bool {
        stats.group_probes += 1;
        self.contains(v)
    }
}

impl<'a> ValueGroup<'a> for MergedGroup<'a> {
    type Values = MergedIter<'a>;

    #[inline]
    fn absent(&self) -> bool {
        self.base.is_empty() && self.add.is_empty()
    }

    #[inline]
    fn values(self) -> MergedIter<'a> {
        self.iter()
    }

    #[inline]
    fn probe(&self, v: Id, stats: &mut SearchStats) -> bool {
        self.contains_counted(v, &mut stats.group_probes)
    }
}

/// Worker-local execution state; one per thread. The only shared
/// mutable state is the lifecycle guard, polled every [`GUARD_BATCH`]
/// bindings.
struct Worker<'a, S> {
    ctxs: &'a [StepCtx<'a>],
    strategy: ProbeStrategy,
    projection: &'a [VarId],
    bindings: Vec<Id>,
    cursors: Vec<usize>,
    rowbuf: Vec<Id>,
    /// Search counters per probe step, plus one trailing slot for
    /// driver-side group checks. Kept per step so profiling costs
    /// nothing extra on the normal path (the merge happens once at
    /// worker exit).
    step_stats: Vec<SearchStats>,
    /// `step_rows[d]` = binding tuples entering probe step `d`;
    /// `step_rows[num_steps]` = result rows emitted.
    step_rows: Vec<u64>,
    sink: S,
    /// Shared lifecycle guard (always present; unguarded runs get a
    /// private unlimited one for panic isolation).
    guard: &'a QueryGuard,
    /// Bindings left before the next guard poll.
    countdown: u32,
    /// Rows emitted since the last poll, credited in batches.
    pending_rows: u64,
    /// Set when the guard tripped; loops unwind promptly once set.
    stop: bool,
    /// The trip that set `stop`, reported to the executor.
    trip: Option<GuardTrip>,
}

impl<'a, S: Sink> Worker<'a, S> {
    /// A worker at the start of its run: zeroed bindings, cursors and
    /// counters, a full poll batch ahead of it.
    fn new(run: &'a Run, ctxs: &'a [StepCtx<'a>], guard: &'a QueryGuard, sink: S) -> Self {
        let steps = ctxs.len();
        Worker {
            ctxs,
            strategy: run.strategy,
            projection: &run.plan.projection,
            bindings: vec![0; run.plan.num_vars],
            cursors: vec![0; steps],
            rowbuf: Vec::with_capacity(run.plan.projection.len()),
            step_stats: vec![SearchStats::default(); steps + 2],
            step_rows: vec![0; steps + 1],
            sink,
            guard,
            countdown: GUARD_BATCH,
            pending_rows: 0,
            stop: false,
            trip: None,
        }
    }

    /// All counters merged (the executor's aggregate view).
    fn total_stats(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for s in &self.step_stats {
            total.merge(s);
        }
        total
    }

    /// Counts one binding against the poll batch. The hot path is a
    /// decrement and a branch; the guard's atomics are only touched
    /// when the batch is exhausted.
    #[inline]
    fn tick(&mut self) {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.poll_guard();
        }
    }

    #[cold]
    fn poll_guard(&mut self) {
        self.countdown = GUARD_BATCH;
        let produced = std::mem::take(&mut self.pending_rows);
        if let Err(trip) = self.guard.poll(produced) {
            self.trip = Some(trip);
            self.stop = true;
        }
    }

    /// Credits rows still pending at worker exit. Only the row budget
    /// is enforced here: it caps result size, so it must hold even for
    /// queries too small to ever hit a poll boundary. A deadline or
    /// cancellation first noticed after the work finished does not
    /// discard a complete result.
    fn final_check(&mut self) {
        let produced = std::mem::take(&mut self.pending_rows);
        if let Err(trip @ GuardTrip::BudgetExceeded { .. }) = self.guard.poll(produced) {
            if self.trip.is_none() {
                self.trip = Some(trip);
            }
        }
    }

    #[inline]
    fn emit(&mut self) {
        self.pending_rows += 1;
        self.rowbuf.clear();
        for &v in self.projection {
            self.rowbuf.push(self.bindings[v as usize]);
        }
        self.sink.push(&self.rowbuf);
    }

    /// Runs probe steps `depth..` for the current bindings.
    fn descend(&mut self, depth: usize) {
        if self.stop {
            return;
        }
        self.tick();
        self.step_rows[depth] += 1;
        if depth == self.ctxs.len() {
            self.emit();
            return;
        }
        let ctx = &self.ctxs[depth];
        let key = match ctx.mode.key {
            KeyMode::Const(c) => c,
            KeyMode::Var(v) => self.bindings[v as usize],
        };
        // The instance is picked here, once per step: a clean replica's
        // probe never looks at delta runs.
        match ctx.source {
            ReplicaView::Clean(replica) => {
                let group = self.search(depth, replica, key);
                self.probe(depth, key, group);
            }
            ReplicaView::Dirty { base, add, del } => {
                let base = base.map_or(Group::Raw(&[]), |r| self.search(depth, r, key));
                // Each resident run looked up counts as a group probe.
                let lookups = u64::from(add.is_some()) + u64::from(del.is_some());
                self.step_stats[depth].group_probes += lookups;
                self.probe_merged(depth, key, ctx.source.group_with_base(key, base));
            }
        }
    }

    /// [`Worker::probe`] over a merged group; a key with no resident
    /// values probes like a clean one. Out of line: descend stays small.
    #[inline(never)]
    fn probe_merged(&mut self, depth: usize, key: Id, group: MergedGroup<'a>) {
        match group {
            MergedGroup {
                base,
                add: [],
                del: [],
            } => self.probe(depth, key, base),
            group => self.probe(depth, key, group),
        }
    }

    /// `key`'s group in `replica`, found by the adaptive search from
    /// step `depth`'s cursor; empty if absent.
    #[inline]
    fn search(&mut self, depth: usize, replica: &'a Replica, key: Id) -> Group<'a> {
        match adaptive_search(
            replica.keys(),
            key,
            &mut self.cursors[depth],
            self.ctxs[depth].threshold,
            self.strategy,
            replica.idpos(),
            &mut self.step_stats[depth],
        ) {
            Some(pos) => replica.group_at(pos),
            None => Group::Raw(&[]),
        }
    }

    /// Probe step `depth` over `group`, the group of `key`: binds each
    /// value, or checks one, and descends.
    #[inline]
    fn probe<G: ValueGroup<'a>>(&mut self, depth: usize, key: Id, group: G) {
        if group.absent() {
            return;
        }
        let value = match self.ctxs[depth].mode.value {
            ValueMode::Bind(v) => {
                // The iterator borrows from the replica ('a), not from
                // `self`, so recursion is free to re-borrow.
                for val in group.values() {
                    self.bindings[v as usize] = val;
                    self.descend(depth + 1);
                }
                return;
            }
            ValueMode::CheckVar(v) => self.bindings[v as usize],
            ValueMode::CheckConst(c) => c,
            ValueMode::CheckEqKey => key,
        };
        if group.probe(value, &mut self.step_stats[depth]) {
            self.descend(depth + 1);
        }
    }

    /// Scans positions `range` of a key driver, handing each to `body`.
    #[inline]
    fn scan_keys(&mut self, range: std::ops::Range<usize>, body: impl Fn(&mut Self, usize)) {
        for pos in range {
            if self.stop {
                break;
            }
            self.tick();
            body(self, pos);
        }
    }

    /// One driver key: binds `key`, then binds or checks the values of
    /// its `group`.
    #[inline]
    fn drive_key<G: ValueGroup<'a>>(&mut self, key: Id, group: G, bind: VarId, value: DriverValue) {
        self.bindings[bind as usize] = key;
        let check = match value {
            DriverValue::Bind(v) => {
                for val in group.values() {
                    self.bindings[v as usize] = val;
                    self.descend(0);
                }
                return;
            }
            DriverValue::CheckConst(c) => c,
            DriverValue::CheckEqKey => key,
        };
        // Driver-side group checks count in the trailing stats slot.
        let slot = self.ctxs.len() + 1;
        if group.probe(check, &mut self.step_stats[slot]) {
            self.descend(0);
        }
    }

    /// Processes one shard `[lo, hi)` of the driver domain.
    fn run_range(&mut self, driver: &ResolvedDriver<'a>, lo: usize, hi: usize) {
        match *driver {
            ResolvedDriver::Keys {
                source,
                keys,
                bind_key,
                value,
            } => match source {
                ReplicaView::Clean(replica) => self.scan_keys(lo..hi, |w, pos| {
                    w.drive_key(replica.key_at(pos), replica.group_at(pos), bind_key, value)
                }),
                // Dirty drivers pay one lookup per run and key (the
                // merged key list has no positions into any single
                // replica), each counted as a group probe. A key with
                // no resident values is driven like a clean one.
                ReplicaView::Dirty { base, add, del } => {
                    let lookups = [base, add, del].iter().flatten().count() as u64;
                    let slot = self.ctxs.len() + 1;
                    self.scan_keys(lo..hi, |w, pos| {
                        w.step_stats[slot].group_probes += lookups;
                        match source.group(keys[pos]) {
                            MergedGroup {
                                base,
                                add: [],
                                del: [],
                            } => w.drive_key(keys[pos], base, bind_key, value),
                            group => w.drive_key(keys[pos], group, bind_key, value),
                        }
                    })
                }
            },
            ResolvedDriver::Group { group, bind_value } => {
                for &val in &group[lo..hi] {
                    if self.stop {
                        break;
                    }
                    self.bindings[bind_value as usize] = val;
                    self.descend(0);
                }
            }
            ResolvedDriver::Exist { present } => {
                if present && lo == 0 {
                    self.descend(0);
                }
            }
        }
    }
}

/// The read-only data one execution probes: the base store, the
/// resident mutation delta (`None` when clean — every probe then takes
/// the zero-overhead CSR path) and the per-replica search thresholds.
/// [`execute`] clones the store and delta `Arc`s into the one run that
/// every participant of the query shares.
#[derive(Debug, Clone, Copy)]
pub struct ExecSource<'a> {
    /// The finalized base store.
    pub store: &'a Arc<TripleStore>,
    /// Pending add/delete runs that probes on touched predicates merge
    /// on the fly. The merged iteration order equals a compacted
    /// store's replica order, so results stay byte-identical to a full
    /// rebuild at any threads × morsel-size combination.
    pub delta: Option<&'a Arc<DeltaOverlay>>,
    /// Adaptive-search thresholds per replica (Algorithm 2's output).
    pub thresholds: &'a Arc<ThresholdTable>,
}

/// Base replicas, overlaid by the delta when one is resident
/// (`base_only` is the zero-cost clean path).
fn store_view<'a>(store: &'a TripleStore, delta: Option<&'a Arc<DeltaOverlay>>) -> StoreView<'a> {
    match delta {
        Some(d) => StoreView::with_delta(store, d),
        None => StoreView::base_only(store),
    }
}

/// A run's driver domain, resolved once.
enum Domain {
    /// Lent by the driver replica (see [`lent_domain`]).
    Lent,
    /// Materialized, because morsels slice the domain by position: a
    /// dirty key union, or a packed or merged group.
    Owned(Vec<Id>),
    /// Whether an existence driver's pair is visible.
    Exist(bool),
}

/// The domain `source` lends `driver` without a copy: a clean keys
/// array, or a raw group with no resident values.
fn lent_domain(source: ReplicaView<'_>, driver: DriverMode) -> Option<&[Id]> {
    match (source, driver) {
        (ReplicaView::Clean(replica), DriverMode::ScanKeys { .. }) => Some(replica.keys()),
        (_, DriverMode::ScanGroup { key, .. }) => match source.group(key) {
            MergedGroup {
                base,
                add: [],
                del: [],
            } => base.as_raw(),
            _ => None,
        },
        _ => None,
    }
}

/// One query's resolved run, built once per [`execute`] call and shared
/// behind one `Arc` by the submitter and every pool helper. It owns
/// what participants read — the store and delta `Arc`s, a clone of the
/// plan, each step's threshold, the morsel grid and the driver domain,
/// materialized at most once — plus the two words they share, the
/// guard and the morsel cursor. Owned data is what lets it cross the
/// pool's `'static` job boundary without `unsafe`.
struct Run {
    store: Arc<TripleStore>,
    delta: Option<Arc<DeltaOverlay>>,
    plan: PhysicalPlan,
    /// Adaptive-search threshold of each probe step.
    thresholds: Vec<i64>,
    strategy: ProbeStrategy,
    morsel_size: usize,
    /// Driver positions the morsel grid covers.
    domain: usize,
    driver: Domain,
    /// The caller's guard, or a private unlimited one so a panicking
    /// participant still stops its siblings.
    guard: Arc<QueryGuard>,
    cursor: AtomicUsize,
}

impl Run {
    /// Resolves `plan` over `src`; `None` when a referenced predicate
    /// has no partition (empty result).
    fn new(src: ExecSource<'_>, plan: &PhysicalPlan, opts: &ExecOptions) -> Option<Run> {
        #[cfg(test)]
        tests::note_resolution(src.store);
        let view = store_view(src.store, src.delta);
        let mut thresholds = Vec::with_capacity(plan.compiled.len());
        for step in plan.steps.iter().skip(1) {
            view.replica(step.predicate, step.order)?;
            let t = src.thresholds.get(step.predicate, step.order);
            thresholds.push(match opts.strategy {
                ProbeStrategy::AdaptiveIndex => t.index,
                _ => t.binary,
            });
        }
        let step0 = &plan.steps[0];
        let source = view.replica(step0.predicate, step0.order)?;
        let owned = |values: Vec<Id>| (values.len(), Domain::Owned(values));
        let (domain, driver) = match (lent_domain(source, plan.driver), plan.driver) {
            (Some(lent), _) => (lent.len(), Domain::Lent),
            (None, DriverMode::ScanKeys { .. }) => owned(source.merged_keys().into_owned()),
            (None, DriverMode::ScanGroup { key, .. }) => owned(source.group(key).iter().collect()),
            (None, DriverMode::Existence { key, value }) => {
                (1, Domain::Exist(source.group(key).contains(value)))
            }
        };
        Some(Run {
            store: Arc::clone(src.store),
            delta: src.delta.map(Arc::clone),
            plan: plan.clone(),
            thresholds,
            strategy: opts.strategy,
            morsel_size: opts.morsel_size,
            domain,
            driver,
            guard: opts.guard.clone().unwrap_or_default(),
            cursor: AtomicUsize::new(0),
        })
    }

    /// A participant's probe contexts and driver, borrowed from the run
    /// through replica lookups alone. `None` only where [`Run::new`]
    /// would have found no run.
    fn resolve(&self) -> Option<(Vec<StepCtx<'_>>, ResolvedDriver<'_>)> {
        let view = store_view(&self.store, self.delta.as_ref());
        let steps = self.plan.steps.iter().skip(1);
        let ctxs = steps
            .zip(&self.plan.compiled)
            .zip(&self.thresholds)
            .map(|((step, &mode), &threshold)| {
                let source = view.replica(step.predicate, step.order)?;
                Some(StepCtx {
                    source,
                    threshold,
                    mode,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let step0 = &self.plan.steps[0];
        let source = view.replica(step0.predicate, step0.order)?;
        let domain = match &self.driver {
            Domain::Lent => lent_domain(source, self.plan.driver)?,
            Domain::Owned(values) => values,
            Domain::Exist(_) => &[],
        };
        let driver = match self.plan.driver {
            DriverMode::ScanKeys { bind_key, value } => ResolvedDriver::Keys {
                source,
                keys: domain,
                bind_key,
                value,
            },
            DriverMode::ScanGroup { bind_value, .. } => ResolvedDriver::Group {
                group: domain,
                bind_value,
            },
            DriverMode::Existence { .. } => ResolvedDriver::Exist {
                present: matches!(self.driver, Domain::Exist(true)),
            },
        };
        Some((ctxs, driver))
    }

    /// One participant's whole run: pull morsels off the shared cursor
    /// until it drains (or the guard trips), keeping one sink per
    /// morsel. Sequential-search cursors persist across the morsels one
    /// participant runs — which morsels those are varies run to run,
    /// but cursor state only changes *search cost*, never which rows
    /// match.
    fn participate<S: Sink>(&self, factory: &impl Fn() -> S) -> Option<ParticipantOutput<S>> {
        let (ctxs, driver) = self.resolve()?;
        let mut w = Worker::new(self, &ctxs, &self.guard, factory());
        // Check limits once up front so pre-cancelled tokens and
        // already-expired deadlines stop even queries too small to
        // reach a poll boundary.
        w.poll_guard();
        let mut morsels: Vec<(usize, S)> = Vec::new();
        while !w.stop {
            // ordering: Relaxed — the cursor is the only shared word;
            // morsel *contents* are read-only during execution, so no
            // publication edge is needed (the same ticket protocol is
            // modeled by loom_parallel in parj-store and loom_pool here).
            let m = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(lo) = m.checked_mul(self.morsel_size) else {
                break;
            };
            if lo >= self.domain {
                break;
            }
            let hi = (lo + self.morsel_size).min(self.domain);
            w.run_range(&driver, lo, hi);
            // One sink per morsel: the coordinator merges sinks in
            // morsel order, making results independent of worker
            // interleaving.
            let full = std::mem::replace(&mut w.sink, factory());
            morsels.push((m, full));
        }
        w.final_check();
        Some(ParticipantOutput {
            morsels,
            stats: w.total_stats(),
            trip: w.trip,
            step_stats: w.step_stats,
            step_rows: w.step_rows,
        })
    }
}

/// Runs the plan single-threaded over the morsel grid that parallel
/// workers would pull from, returning each morsel's **work units**
/// (rows emitted + array words touched).
///
/// Workers draw morsels dynamically from one atomic cursor, so on
/// ideal hardware the parallel makespan with `K` threads is bounded
/// below by `max(total/K, max_morsel)` — the benchmark harness reports
/// `total / max(total/K, max_morsel)` as the achievable speedup of the
/// morsel distribution, independently of how many cores the measuring
/// host happens to have.
///
/// Invalid [`ExecOptions`] (zero threads or morsel size) are rejected
/// with the same [`ExecOptionsError`] the executor itself reports,
/// instead of being conflated with the legitimately-empty answer of an
/// unanswerable plan (`Ok(vec![])`). This diagnostic helper never
/// panics.
pub fn morsel_loads(
    src: ExecSource<'_>,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
) -> Result<Vec<u64>, ExecOptionsError> {
    opts.validate()?;
    let Some(run) = Run::new(src, plan, opts) else {
        return Ok(Vec::new());
    };
    let Some((ctxs, driver)) = run.resolve() else {
        return Ok(Vec::new());
    };
    let guard = QueryGuard::unlimited();
    let mut worker = Worker::new(&run, &ctxs, &guard, CountSink::default());
    let mut loads = Vec::new();
    let mut prev = 0u64;
    let mut lo = 0usize;
    while lo < run.domain {
        let hi = (lo + run.morsel_size).min(run.domain);
        worker.run_range(&driver, lo, hi);
        let now = worker.sink.count + worker.total_stats().words_touched();
        loads.push(now - prev);
        prev = now;
        lo = hi;
    }
    Ok(loads)
}

/// Everything one finished participant hands back to the coordinator:
/// its per-morsel sinks (tagged with morsel index for the
/// deterministic merge) plus its private counters.
struct ParticipantOutput<S> {
    morsels: Vec<(usize, S)>,
    stats: SearchStats,
    trip: Option<GuardTrip>,
    step_stats: Vec<SearchStats>,
    step_rows: Vec<u64>,
}

/// Folds participant outputs into the caller-facing result: merged
/// counters, the worst failure (panic > budget > deadline > cancel),
/// one recorder callback, and the deterministic morsel-ordered sinks.
fn merge_participants<S: Sink>(
    parts: Vec<ParticipantOutput<S>>,
    panicked: Option<String>,
    opts: &ExecOptions,
    guard: &QueryGuard,
    n_ctxs: usize,
) -> ExecResult<(Vec<S>, SearchStats)> {
    let mut total = SearchStats::default();
    let mut worst: Option<ExecFailureKind> =
        panicked.map(|message| ExecFailureKind::WorkerPanicked { message });
    let note = |kind: ExecFailureKind, worst: &mut Option<ExecFailureKind>| {
        if worst
            .as_ref()
            .is_none_or(|w| kind.severity() > w.severity())
        {
            *worst = Some(kind);
        }
    };

    // Aggregates for the recorder, built only when one is attached —
    // runs without a recorder pay nothing here.
    let recording = opts.recorder.is_some();
    let mut agg_step_stats = vec![SearchStats::default(); if recording { n_ctxs + 2 } else { 0 }];
    let mut agg_step_rows = vec![0u64; if recording { n_ctxs + 1 } else { 0 }];
    let mut worker_units: Vec<u64> = Vec::new();
    let mut morsel_count = 0u64;

    let mut tagged: Vec<(usize, S)> = Vec::new();
    for out in parts {
        total.merge(&out.stats);
        if let Some(trip) = out.trip {
            note(ExecFailureKind::from_trip(trip), &mut worst);
        }
        morsel_count += out.morsels.len() as u64;
        if recording {
            for (agg, s) in agg_step_stats.iter_mut().zip(&out.step_stats) {
                agg.merge(s);
            }
            for (agg, r) in agg_step_rows.iter_mut().zip(&out.step_rows) {
                *agg += r;
            }
            let rows = out.step_rows.last().copied().unwrap_or(0);
            worker_units.push(rows + out.stats.words_touched());
        }
        tagged.extend(out.morsels);
    }
    // Deterministic merge: morsel index order *is* driver-domain order,
    // so the concatenated sinks are byte-identical no matter which
    // worker ran which morsel, how many workers participated, or how
    // the pulls interleaved.
    tagged.sort_unstable_by_key(|(m, _)| *m);

    if let Some(rec) = &opts.recorder {
        // Recorded on success *and* failure: partial progress is what
        // the outcome counters need to explain a timeout or budget trip.
        rec.record_exec(&ExecRecord {
            result_rows: agg_step_rows.last().copied().unwrap_or(0),
            step_rows: &agg_step_rows,
            step_search: &agg_step_stats[..n_ctxs],
            driver_search: agg_step_stats[n_ctxs + 1],
            total_search: total,
            worker_units: &worker_units,
            morsels: morsel_count,
        });
    }
    if let Some(kind) = worst {
        return Err(Box::new(ExecFailure {
            kind,
            stats: total,
            rows: guard.rows(),
        }));
    }
    Ok((tagged.into_iter().map(|(_, s)| s).collect(), total))
}

/// Fires the recorder's empty record for plans that short-circuit
/// before any worker runs (a referenced predicate has no partition).
fn record_empty(opts: &ExecOptions) {
    if let Some(rec) = &opts.recorder {
        rec.record_exec(&ExecRecord {
            result_rows: 0,
            step_rows: &[],
            step_search: &[],
            driver_search: SearchStats::default(),
            total_search: SearchStats::default(),
            worker_units: &[],
            morsels: 0,
        });
    }
}

fn invalid_options(e: ExecOptionsError) -> Box<ExecFailure> {
    Box::new(ExecFailure {
        kind: ExecFailureKind::InvalidOptions {
            message: e.to_string(),
        },
        stats: SearchStats::default(),
        rows: 0,
    })
}

/// Executes `plan` over `src`, creating sinks via `factory`, and
/// returns the morsel-ordered sinks plus merged search counters.
/// Concatenating the returned sinks yields rows in driver-domain
/// order — deterministic across thread counts and morsel sizes.
///
/// The calling thread resolves the plan once into a shared run and
/// always participates. With a `pool` and a driver spanning several
/// morsels, up to `min(threads − 1, morsels − 1)` idle pool workers
/// join it, pulling morsels off the run's cursor; otherwise the same
/// participant body runs inline and the pool is never touched. No
/// threads are created or destroyed per query.
///
/// Pool participants are `'static` jobs, so each holds a clone of the
/// run's `Arc` and borrows its probe contexts and driver from it
/// through replica lookups; nothing is resolved twice. A participant
/// panic fails only this query: it is caught, cancels the query's
/// guard so siblings stop at their next poll, and surfaces as
/// [`ExecFailureKind::WorkerPanicked`]; the store is read-only during
/// execution and the pool worker returns to service.
pub fn execute<S, F>(
    src: ExecSource<'_>,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
    pool: Option<&WorkerPool>,
    factory: F,
) -> ExecResult<(Vec<S>, SearchStats)>
where
    S: Sink + Send + 'static,
    F: Fn() -> S + Send + Sync + 'static,
{
    if let Err(e) = opts.validate() {
        return Err(invalid_options(e));
    }
    let Some(run) = Run::new(src, plan, opts) else {
        record_empty(opts);
        return Ok((Vec::new(), SearchStats::default()));
    };
    // Helpers beyond the morsel count would only spin the cursor once
    // and exit; don't seat them. This clamp is also the small-query
    // rule: a driver that fits one morsel runs on the calling thread.
    let num_morsels = run.domain.div_ceil(run.morsel_size).max(1);
    let helpers = pool.map_or(0, |_| opts.threads.saturating_sub(1).min(num_morsels - 1));
    let run = Arc::new(run);
    // What the participants hand back: each pushes its output, or the
    // first panic's message, as it finishes.
    let output = Arc::new(parj_sync::OrderedMutex::new(
        parj_sync::LockLevel::ExecOutput,
        "exec.output",
        (Vec::<ParticipantOutput<S>>::new(), None::<String>),
    ));
    let body = {
        let (run, output) = (Arc::clone(&run), Arc::clone(&output));
        move || {
            let part = std::panic::catch_unwind(AssertUnwindSafe(|| run.participate(&factory)));
            if part.is_err() {
                run.guard.cancel();
            }
            let (parts, panicked) = &mut *output.lock();
            match part {
                Ok(part) => parts.extend(part),
                Err(payload) => {
                    panicked.get_or_insert_with(|| panic_message(payload.as_ref()));
                }
            }
        }
    };
    match pool {
        // The pool's rendezvous returns only after every participant
        // that joined has finished, so the drain below sees them all.
        Some(pool) if helpers > 0 => pool.run(helpers, Arc::new(body)),
        _ => body(),
    }
    let (parts, panicked) = std::mem::take(&mut *output.lock());
    merge_participants(parts, panicked, opts, &run.guard, run.plan.compiled.len())
}

/// Silent-mode execution: returns only the result count (and counters).
pub fn execute_count(
    src: ExecSource<'_>,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
    pool: Option<&WorkerPool>,
) -> ExecResult<(u64, SearchStats)> {
    let (sinks, stats) = execute(src, plan, opts, pool, CountSink::default)?;
    Ok((sinks.iter().map(|s| s.count).sum(), stats))
}

/// Materializing execution: collects all result rows, in driver-domain
/// order, into one flat [`crate::RowBatch`] — worker sink buffers are
/// concatenated wholesale, never exploded into per-row allocations.
///
/// Zero-arity plans (pure existence) carry no id payload; the batch
/// still reports the real match count through its explicit zero-arity
/// row counter.
pub fn execute_collect(
    src: ExecSource<'_>,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
    pool: Option<&WorkerPool>,
) -> ExecResult<(crate::RowBatch, SearchStats)> {
    let (sinks, stats) = execute(src, plan, opts, pool, CollectSink::default)?;
    let arity = plan.projection.len();
    let mut rows = crate::RowBatch::new(arity);
    for sink in &sinks {
        if arity == 0 {
            rows.extend_rows(sink.rows as usize);
        } else {
            rows.extend_flat(&sink.data);
        }
    }
    Ok((rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::CalibrationResult;
    use crate::plan::{Atom, PlanStep};
    use parj_dict::Term;
    use parj_store::{SortOrder, StoreBuilder};

    /// Plan resolutions ([`Run::new`] calls) per store, keyed by the
    /// store's address. Pool helpers run on their own threads and
    /// tests run in parallel, so a thread-local count would miss
    /// helpers; a test reads the count of a store it keeps alive, whose
    /// address no other live store shares.
    static RESOLUTIONS: std::sync::Mutex<Vec<(usize, usize)>> = std::sync::Mutex::new(Vec::new());

    pub(super) fn note_resolution(store: &Arc<TripleStore>) {
        let addr = Arc::as_ptr(store) as usize;
        let mut counts = RESOLUTIONS.lock().unwrap();
        match counts.iter_mut().find(|(a, _)| *a == addr) {
            Some((_, n)) => *n += 1,
            None => counts.push((addr, 1)),
        }
    }

    /// Resolutions noted so far for `store`.
    fn resolutions(store: &Arc<TripleStore>) -> usize {
        let addr = Arc::as_ptr(store) as usize;
        let counts = RESOLUTIONS.lock().unwrap();
        counts
            .iter()
            .find(|(a, _)| *a == addr)
            .map_or(0, |(_, n)| *n)
    }

    /// Paper-default thresholds for `store`.
    fn thresholds(store: &TripleStore) -> Arc<ThresholdTable> {
        Arc::new(ThresholdTable::from_calibration(
            store,
            &CalibrationResult::paper_defaults(),
        ))
    }

    /// One pool for the whole module: without it every `threads > 1`
    /// below would silently run inline.
    fn pool() -> &'static WorkerPool {
        static POOL: std::sync::OnceLock<WorkerPool> = std::sync::OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(3))
    }

    /// Counts `plan`'s results over a clean `store` on the module pool.
    fn run_count(
        store: &Arc<TripleStore>,
        plan: &PhysicalPlan,
        opts: &ExecOptions,
    ) -> ExecResult<(u64, SearchStats)> {
        let thresholds = thresholds(store);
        let src = ExecSource {
            store,
            delta: None,
            thresholds: &thresholds,
        };
        execute_count(src, plan, opts, Some(pool()))
    }

    /// Flattened rows of `plan` in emission order (no sort): `pool`
    /// `None` is the inline run every parallel run must reproduce.
    fn collect_flat(
        store: &Arc<TripleStore>,
        delta: Option<&Arc<DeltaOverlay>>,
        plan: &PhysicalPlan,
        opts: &ExecOptions,
        pool: Option<&WorkerPool>,
    ) -> ExecResult<Vec<Id>> {
        let thresholds = thresholds(store);
        let src = ExecSource {
            store,
            delta,
            thresholds: &thresholds,
        };
        let (sinks, _) = execute(src, plan, opts, pool, CollectSink::default)?;
        Ok(sinks.iter().flat_map(|s| s.data.iter().copied()).collect())
    }

    /// A small university graph: professors teach courses and work for
    /// universities; students take courses and are advised by profs.
    fn store() -> Arc<TripleStore> {
        let mut b = StoreBuilder::new();
        let mut add = |s: &str, p: &str, o: &str| {
            b.add_term_triple(&Term::iri(s), &Term::iri(p), &Term::iri(o));
        };
        for (prof, unis) in [("ProfA", "U1"), ("ProfB", "U2"), ("ProfC", "U2")] {
            add(prof, "worksFor", unis);
        }
        for (prof, course) in [
            ("ProfA", "Math"),
            ("ProfA", "Physics"),
            ("ProfB", "Chem"),
            ("ProfC", "Lit"),
        ] {
            add(prof, "teaches", course);
        }
        for (stud, course) in [
            ("Stud1", "Math"),
            ("Stud1", "Chem"),
            ("Stud2", "Math"),
            ("Stud3", "Lit"),
            ("Stud3", "Physics"),
        ] {
            add(stud, "takes", course);
        }
        for (stud, prof) in [("Stud1", "ProfA"), ("Stud2", "ProfA"), ("Stud3", "ProfC")] {
            add(stud, "advisor", prof);
        }
        Arc::new(b.build())
    }

    fn pid(store: &TripleStore, name: &str) -> Id {
        store.dict().predicate_id(&Term::iri(name)).unwrap()
    }

    fn rid(store: &TripleStore, name: &str) -> Id {
        store.dict().resource_id(&Term::iri(name)).unwrap()
    }

    /// Brute-force oracle over the store's triples for a conjunctive
    /// pattern list given as (subject, predicate-id, object) atoms.
    fn oracle(store: &TripleStore, patterns: &[(Atom, Id, Atom)], num_vars: usize) -> Vec<Vec<Id>> {
        let triples: Vec<_> = store.iter_triples().collect();
        let mut results = Vec::new();
        let mut bindings: Vec<Option<Id>> = vec![None; num_vars];
        fn rec(
            patterns: &[(Atom, Id, Atom)],
            triples: &[parj_dict::EncodedTriple],
            bindings: &mut [Option<Id>],
            results: &mut Vec<Vec<Id>>,
        ) {
            let Some(&(s, p, o)) = patterns.first() else {
                results.push(bindings.iter().map(|b| b.unwrap_or(0)).collect());
                return;
            };
            for t in triples {
                if t.p != p {
                    continue;
                }
                let mut local = bindings.to_vec();
                let ok = |atom: Atom, id: Id, b: &mut [Option<Id>]| match atom {
                    Atom::Const(c) => c == id,
                    Atom::Var(v) => match b[v as usize] {
                        Some(x) => x == id,
                        None => {
                            b[v as usize] = Some(id);
                            true
                        }
                    },
                };
                if ok(s, t.s, &mut local) && ok(o, t.o, &mut local) {
                    rec(&patterns[1..], triples, &mut local, results);
                }
            }
        }
        rec(patterns, &triples, &mut bindings, &mut results);
        results.sort();
        results.dedup();
        results
    }

    fn check_plan_against_oracle(
        store: &Arc<TripleStore>,
        steps: Vec<PlanStep>,
        num_vars: usize,
        patterns: &[(Atom, Id, Atom)],
    ) {
        let projection: Vec<VarId> = (0..num_vars as VarId).collect();
        let plan = PhysicalPlan::new(steps, num_vars, projection).unwrap();
        let expected = oracle(store, patterns, num_vars);
        for strategy in [
            ProbeStrategy::AlwaysBinary,
            ProbeStrategy::AdaptiveBinary,
            ProbeStrategy::AlwaysIndex,
            ProbeStrategy::AdaptiveIndex,
            ProbeStrategy::AlwaysSequential,
        ] {
            for threads in [1, 4] {
                let opts = ExecOptions {
                    threads,
                    morsel_size: 3,
                    strategy,
                    guard: None,
                    recorder: None,
                };
                let mut rows = collect_rows(store, None, &plan, &opts);
                rows.sort_unstable();
                rows.dedup();
                assert_eq!(
                    rows, expected,
                    "strategy {strategy} threads {threads} disagreed with oracle"
                );
            }
        }
    }

    #[test]
    fn example_31_subject_subject_join() {
        // ?x teaches ?z . ?x worksFor ?y
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        check_plan_against_oracle(
            &s,
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            &[
                (Atom::Var(0), teaches, Atom::Var(1)),
                (Atom::Var(0), works, Atom::Var(2)),
            ],
        );
    }

    /// Builds an overlay with mutations and a from-scratch rebuilt
    /// store holding the same visible triples (same dictionary ids).
    fn dirty_and_rebuilt() -> (Arc<TripleStore>, Arc<DeltaOverlay>, Arc<TripleStore>) {
        let base = store();
        let mut ov = DeltaOverlay::new(&base);
        let teaches = pid(&base, "teaches");
        let works = pid(&base, "worksFor");
        // ProfB stops teaching Chem and starts teaching Math + Lit;
        // ProfC moves to U1.
        let (profb, profc) = (rid(&base, "ProfB"), rid(&base, "ProfC"));
        let (math, lit, chem) = (rid(&base, "Math"), rid(&base, "Lit"), rid(&base, "Chem"));
        let (u1, u2) = (rid(&base, "U1"), rid(&base, "U2"));
        let mut ins = vec![(profb, math), (profb, lit)];
        ins.sort_unstable();
        ov.apply_pred(&base, teaches, &ins, &[(profb, chem)]);
        ov.apply_pred(&base, works, &[(profc, u1)], &[(profc, u2)]);
        assert_eq!(ov.check_invariants(&base), Ok(()));

        let mut b = StoreBuilder::new();
        *b.dict_mut() = base.dict().clone();
        for t in ov.iter_merged_triples(&base) {
            b.add_encoded(t);
        }
        let rebuilt = b.build();
        assert_eq!(rebuilt.num_triples(), ov.visible_triples(&base));
        (base, Arc::new(ov), Arc::new(rebuilt))
    }

    fn collect_rows(
        store: &Arc<TripleStore>,
        delta: Option<&Arc<DeltaOverlay>>,
        plan: &PhysicalPlan,
        opts: &ExecOptions,
    ) -> Vec<Vec<Id>> {
        let arity = plan.projection.len().max(1);
        collect_flat(store, delta, plan, opts, Some(pool()))
            .expect("runs")
            .chunks(arity)
            .map(<[Id]>::to_vec)
            .collect()
    }

    #[test]
    fn compressed_store_rows_equal_raw_byte_for_byte() {
        // The same graph built raw and block-compressed must emit the
        // *unsorted* row stream identically at every strategy, thread
        // count and morsel size — compression is invisible to results.
        let build = |compress: Option<usize>| {
            let mut b = StoreBuilder::new();
            for i in 0..3000u32 {
                b.add_term_triple(
                    &Term::iri(format!("s{}", i % 6)),
                    &Term::iri("p0"),
                    &Term::iri(format!("m{}", i % 500)),
                );
                b.add_term_triple(
                    &Term::iri(format!("m{}", i % 500)),
                    &Term::iri("p1"),
                    &Term::iri(format!("t{}", (i * 7) % 90)),
                );
            }
            Arc::new(b.build_with(parj_store::StoreOptions {
                compress_min_values: compress,
                ..Default::default()
            }))
        };
        let raw = build(None);
        let zip = build(Some(16));
        let p0 = pid(&raw, "p0");
        let p1 = pid(&raw, "p1");
        assert!(
            zip.replica(p0, SortOrder::SO).unwrap().is_compressed(),
            "long-run replica must compress"
        );
        // ?x p0 ?y . ?y p1 ?z
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: p0,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: p1,
                    order: SortOrder::SO,
                    key: Atom::Var(1),
                    value: Atom::Var(2),
                },
            ],
            3,
            vec![0, 1, 2],
        )
        .unwrap();
        for strategy in [
            ProbeStrategy::AdaptiveIndex,
            ProbeStrategy::AdaptiveBinary,
            ProbeStrategy::AlwaysSequential,
        ] {
            for threads in [1usize, 4] {
                for morsel in [7usize, 16_384] {
                    let opts = ExecOptions {
                        threads,
                        morsel_size: morsel,
                        strategy,
                        guard: None,
                        recorder: None,
                    };
                    let a = collect_rows(&raw, None, &plan, &opts);
                    let b = collect_rows(&zip, None, &plan, &opts);
                    assert_eq!(
                        a, b,
                        "strategy {strategy} threads {threads} morsel {morsel}"
                    );
                    assert!(!a.is_empty());
                }
            }
        }
    }

    #[test]
    fn dirty_view_rows_equal_rebuilt_store_byte_for_byte() {
        // The merged probe order must equal a compacted replica's
        // order, so the *unsorted* row stream — not just the row set —
        // matches a from-scratch rebuild at every dispatch shape.
        let (base, ov, rebuilt) = dirty_and_rebuilt();
        let teaches = pid(&base, "teaches");
        let works = pid(&base, "worksFor");
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            vec![0, 1, 2],
        )
        .unwrap();
        for strategy in [
            ProbeStrategy::AdaptiveIndex,
            ProbeStrategy::AlwaysSequential,
        ] {
            for threads in [1usize, 4] {
                for morsel in [1usize, 2, 16_384] {
                    let opts = ExecOptions {
                        threads,
                        morsel_size: morsel,
                        strategy,
                        guard: None,
                        recorder: None,
                    };
                    let dirty = collect_rows(&base, Some(&ov), &plan, &opts);
                    let clean = collect_rows(&rebuilt, None, &plan, &opts);
                    assert_eq!(
                        dirty, clean,
                        "strategy {strategy} threads {threads} morsel {morsel}"
                    );
                    assert!(!dirty.is_empty(), "join must produce rows");
                }
            }
        }
    }

    #[test]
    fn dirty_group_scan_and_existence_drivers() {
        let (base, ov, rebuilt) = dirty_and_rebuilt();
        let works = pid(&base, "worksFor");
        let teaches = pid(&base, "teaches");
        let u1 = rid(&base, "U1");
        let (profb, chem, math) = (rid(&base, "ProfB"), rid(&base, "Chem"), rid(&base, "Math"));
        // Group-scan driver on the dirtied worksFor O-S replica:
        // ?x worksFor U1 . ?x teaches ?y — U1 now includes ProfC.
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: works,
                    order: SortOrder::OS,
                    key: Atom::Const(u1),
                    value: Atom::Var(0),
                },
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
            ],
            2,
            vec![0, 1],
        )
        .unwrap();
        let opts = ExecOptions::with_threads(2);
        let dirty = collect_rows(&base, Some(&ov), &plan, &opts);
        let clean = collect_rows(&rebuilt, None, &plan, &opts);
        assert_eq!(dirty, clean);
        assert!(dirty.len() >= 2, "ProfA and ProfC both work for U1 now");

        // Existence driver: deleted pair answers absent, inserted pair
        // answers present.
        for (s, o, expect) in [(profb, chem, false), (profb, math, true)] {
            let plan = PhysicalPlan::new(
                vec![PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Const(s),
                    value: Atom::Const(o),
                }],
                0,
                vec![],
            )
            .unwrap();
            let thresholds = thresholds(&base);
            let src = ExecSource {
                store: &base,
                delta: Some(&ov),
                thresholds: &thresholds,
            };
            let (count, _) =
                execute_count(src, &plan, &ExecOptions::default(), None).expect("runs");
            assert_eq!(count > 0, expect, "existence of ({s},{o})");
        }
    }

    /// Pins rows and every search counter of clean and dirty runs, for
    /// each driver kind (key scan, group scan, existence) and every
    /// value mode, on a block-compressed base whose touched predicates
    /// hold both add and del runs. The clean run is the base alone; the
    /// dirty run adds the overlay. Each plan has six cases, clean then
    /// dirty under `AdaptiveIndex`, `AlwaysBinary` and `AlwaysIndex`;
    /// each case is `[rows, row digest, binary, sequential, index,
    /// binary steps, sequential steps, index words, group probes]`.
    #[test]
    fn clean_and_dirty_counters_are_pinned() {
        let mut b = StoreBuilder::new();
        let iri = |s: String| Term::iri(s);
        for i in 0..3000u32 {
            let (s, m) = (format!("s{}", i % 6), format!("m{}", i % 500));
            b.add_term_triple(&iri(s), &iri("p0".into()), &iri(m.clone()));
            let t = format!("t{}", (i * 7) % 90);
            b.add_term_triple(&iri(m), &iri("p1".into()), &iri(t));
        }
        // p2: `m_j p2 m_j` when 3 divides j, `m_j p2 m_{j+1}` when j ≡ 1.
        for j in (0..500u32).filter(|j| j % 3 < 2) {
            let (m, next) = (format!("m{j}"), format!("m{}", j + j % 3));
            b.add_term_triple(&iri(m), &iri("p2".into()), &iri(next));
        }
        let base = Arc::new(b.build_with(parj_store::StoreOptions {
            compress_min_values: Some(8),
            ..Default::default()
        }));
        let (p0, p1, p2) = (pid(&base, "p0"), pid(&base, "p1"), pid(&base, "p2"));
        for p in [p0, p1] {
            for order in [SortOrder::SO, SortOrder::OS] {
                assert!(base.replica(p, order).unwrap().is_compressed());
            }
        }
        let r = |name: &str| rid(&base, name);
        let mut ov = DeltaOverlay::new(&base);
        let mut edit = |p: Id, mut ins: Vec<(Id, Id)>, step: usize| {
            ins.sort_unstable();
            let del: Vec<(Id, Id)> = base.partition(p).unwrap().iter_so().step_by(step).collect();
            ov.apply_pred(&base, p, &ins, &del);
        };
        // Inserts under existing keys and under keys new to the
        // predicate; deletes spread over every predicate (p2's include
        // whole groups).
        edit(
            p0,
            vec![
                (r("s0"), r("m1")),
                (r("s0"), r("m3")),
                (r("s5"), r("m0")),
                (r("t1"), r("m5")),
            ],
            37,
        );
        edit(
            p1,
            vec![
                (r("m0"), r("t1")),
                (r("m499"), r("t89")),
                (r("s2"), r("t3")),
            ],
            13,
        );
        edit(p2, vec![(r("m1"), r("m1")), (r("m7"), r("m7"))], 3);
        for p in [p0, p1, p2] {
            let d = ov.pred(p).unwrap();
            assert!(d.add().is_some() && d.del().is_some(), "pred {p}");
        }
        let ov = Arc::new(ov);

        let (x, y, z) = (Atom::Var(0), Atom::Var(1), Atom::Var(2));
        let step = |predicate, order, key, value| PlanStep {
            predicate,
            order,
            key,
            value,
        };
        let (so, os) = (SortOrder::SO, SortOrder::OS);
        let plans = [
            // Key scan binding the value; probes bind and check a var.
            (
                vec![step(p0, so, x, y), step(p1, so, y, z), step(p0, os, y, x)],
                vec![0, 1, 2],
            ),
            // Key scan checking a constant; probes bind and check `?y p2 ?y`.
            (
                vec![
                    step(p1, so, y, Atom::Const(r("t3"))),
                    step(p0, os, y, x),
                    step(p2, so, y, y),
                ],
                vec![0, 1],
            ),
            // Key scan checking `?y p2 ?y`; probes check a constant.
            (
                vec![step(p2, so, y, y), step(p1, so, y, Atom::Const(r("t7")))],
                vec![1],
            ),
            // Group scan, then bind and check.
            (
                vec![
                    step(p1, os, Atom::Const(r("t3")), y),
                    step(p0, os, y, x),
                    step(p1, so, y, z),
                ],
                vec![0, 1, 2],
            ),
            // Existence, then a constant-key probe and a check.
            (
                vec![
                    step(p0, so, Atom::Const(r("s0")), Atom::Const(r("m4"))),
                    step(p1, so, Atom::Const(r("m4")), z),
                    step(p1, os, z, Atom::Const(r("m4"))),
                ],
                vec![2],
            ),
        ];
        let thresholds = thresholds(&base);
        let mut got = Vec::new();
        for (steps, projection) in plans {
            let plan = PhysicalPlan::new(steps, 3, projection).unwrap();
            for strategy in [
                ProbeStrategy::AdaptiveIndex,
                ProbeStrategy::AlwaysBinary,
                ProbeStrategy::AlwaysIndex,
            ] {
                for delta in [None, Some(&ov)] {
                    let src = ExecSource {
                        store: &base,
                        delta,
                        thresholds: &thresholds,
                    };
                    let opts = ExecOptions {
                        strategy,
                        ..Default::default()
                    };
                    let (sinks, s) =
                        execute(src, &plan, &opts, None, CollectSink::default).expect("runs");
                    let rows: u64 = sinks.iter().map(|k| k.rows).sum();
                    let digest = sinks.iter().flat_map(|k| &k.data).fold(0u64, |h, &v| {
                        (h ^ u64::from(v)).wrapping_mul(0x0100_0000_01b3)
                    });
                    got.push([
                        rows,
                        digest,
                        s.binary_searches,
                        s.sequential_searches,
                        s.index_lookups,
                        s.binary_steps,
                        s.sequential_steps,
                        s.index_words,
                        s.group_probes,
                    ]);
                }
            }
        }
        let want: &[[u64; 9]] = &[
            // key scan, bind.
            [9000, 7796797804226087340, 0, 10490, 10, 0, 16466, 20, 9000],
            [8109, 518127101142247629, 0, 9560, 12, 0, 15534, 24, 27760],
            [9000, 7796797804226087340, 10500, 0, 0, 83958, 0, 0, 9000],
            [8109, 518127101142247629, 9572, 0, 0, 76537, 0, 0, 27760],
            [9000, 7796797804226087340, 0, 0, 10500, 0, 0, 21000, 9000],
            [8109, 518127101142247629, 0, 0, 9572, 0, 0, 19144, 27760],
            // key scan, constant.
            [33, 10394745742222265042, 0, 115, 17, 0, 626, 34, 566],
            [29, 2821297231521026570, 0, 94, 23, 0, 513, 46, 2527],
            [33, 10394745742222265042, 132, 0, 0, 1001, 0, 0, 566],
            [29, 2821297231521026570, 117, 0, 0, 886, 0, 0, 2527],
            [33, 10394745742222265042, 0, 0, 132, 0, 0, 264, 566],
            [29, 2821297231521026570, 0, 0, 117, 0, 0, 234, 2527],
            // key scan, ?y p2 ?y.
            [11, 13928212849434718261, 0, 167, 0, 0, 665, 0, 501],
            [7, 13519468943826743865, 0, 113, 0, 0, 611, 0, 1785],
            [11, 13928212849434718261, 167, 0, 0, 1340, 0, 0, 501],
            [7, 13519468943826743865, 113, 0, 0, 897, 0, 0, 1785],
            [11, 13928212849434718261, 0, 0, 167, 0, 0, 334, 501],
            [7, 13519468943826743865, 0, 0, 113, 0, 0, 226, 1785],
            // group scan.
            [594, 7077327904410190658, 0, 118, 14, 0, 722, 28, 0],
            [481, 12256677220545973, 0, 101, 16, 0, 619, 32, 234],
            [594, 7077327904410190658, 132, 0, 0, 1004, 0, 0, 0],
            [481, 12256677220545973, 117, 0, 0, 896, 0, 0, 234],
            [594, 7077327904410190658, 0, 0, 132, 0, 0, 264, 0],
            [481, 12256677220545973, 0, 0, 117, 0, 0, 234, 234],
            // existence.
            [6, 12839672859864312615, 0, 6, 1, 0, 58, 2, 6],
            [5, 4882626933753831314, 0, 5, 1, 0, 46, 2, 21],
            [6, 12839672859864312615, 7, 0, 0, 42, 0, 0, 6],
            [5, 4882626933753831314, 6, 0, 0, 36, 0, 0, 21],
            [6, 12839672859864312615, 0, 0, 7, 0, 0, 14, 6],
            [5, 4882626933753831314, 0, 0, 6, 0, 0, 12, 21],
        ];
        assert_eq!(got, want, "{got:#?}");
    }

    #[test]
    fn example_32_constant_driver_group_scan() {
        // ?x worksFor U2 . ?x teaches ?z — driver is the U2 group of the
        // O-S replica (Example 3.2).
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        let u2 = rid(&s, "U2");
        check_plan_against_oracle(
            &s,
            vec![
                PlanStep {
                    predicate: works,
                    order: SortOrder::OS,
                    key: Atom::Const(u2),
                    value: Atom::Var(0),
                },
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
            ],
            2,
            &[
                (Atom::Var(0), works, Atom::Const(u2)),
                (Atom::Var(0), teaches, Atom::Var(1)),
            ],
        );
    }

    #[test]
    fn example_41_three_step_chain() {
        // ?x teaches ?z . ?z takenBy... modeled as: ?s advisor ?p .
        // ?p teaches ?c . ?s takes ?c  (triangle: students taking a
        // course their advisor teaches).
        let s = store();
        let advisor = pid(&s, "advisor");
        let teaches = pid(&s, "teaches");
        let takes = pid(&s, "takes");
        check_plan_against_oracle(
            &s,
            vec![
                PlanStep {
                    predicate: advisor,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(1),
                    value: Atom::Var(2),
                },
                PlanStep {
                    predicate: takes,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            &[
                (Atom::Var(0), advisor, Atom::Var(1)),
                (Atom::Var(1), teaches, Atom::Var(2)),
                (Atom::Var(0), takes, Atom::Var(2)),
            ],
        );
    }

    #[test]
    fn object_object_join_via_os_replica() {
        // ?a teaches ?c . ?s takes ?c : object-object join; second step
        // keyed on the object via the O-S replica.
        let s = store();
        let teaches = pid(&s, "teaches");
        let takes = pid(&s, "takes");
        check_plan_against_oracle(
            &s,
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: takes,
                    order: SortOrder::OS,
                    key: Atom::Var(1),
                    value: Atom::Var(2),
                },
            ],
            3,
            &[
                (Atom::Var(0), teaches, Atom::Var(1)),
                (Atom::Var(2), takes, Atom::Var(1)),
            ],
        );
    }

    #[test]
    fn existence_driver() {
        let s = store();
        let works = pid(&s, "worksFor");
        let (pa, u1) = (rid(&s, "ProfA"), rid(&s, "U1"));
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: works,
                order: SortOrder::SO,
                key: Atom::Const(pa),
                value: Atom::Const(u1),
            }],
            0,
            vec![],
        )
        .unwrap();
        let (count, _) = run_count(&s, &plan, &ExecOptions::with_threads(4)).expect("runs");
        assert_eq!(count, 1);
        // Absent triple.
        let u2 = rid(&s, "U2");
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: works,
                order: SortOrder::SO,
                key: Atom::Const(pa),
                value: Atom::Const(u2),
            }],
            0,
            vec![],
        )
        .unwrap();
        let (count, _) = run_count(&s, &plan, &ExecOptions::default()).expect("runs");
        assert_eq!(count, 0);
    }

    #[test]
    fn missing_predicate_partition_yields_empty() {
        let s = store();
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: 999,
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![0, 1],
        )
        .unwrap();
        let (count, _) = run_count(&s, &plan, &ExecOptions::default()).expect("runs");
        assert_eq!(count, 0);
    }

    #[test]
    fn stats_are_collected() {
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            vec![0],
        )
        .unwrap();
        let opts = ExecOptions {
            strategy: ProbeStrategy::AlwaysBinary,
            ..Default::default()
        };
        let (_, stats) = run_count(&s, &plan, &opts).expect("runs");
        // 4 teaches tuples → 4 probes of worksFor.
        assert_eq!(stats.binary_searches, 4);
        assert_eq!(stats.sequential_searches, 0);
        let opts = ExecOptions {
            strategy: ProbeStrategy::AlwaysSequential,
            ..Default::default()
        };
        let (_, stats) = run_count(&s, &plan, &opts).expect("runs");
        assert_eq!(stats.sequential_searches, 4);
        assert_eq!(stats.binary_searches, 0);
    }

    #[test]
    fn many_threads_on_tiny_domain() {
        // More threads than driver keys: no worker may panic or
        // double-count.
        let s = store();
        let teaches = pid(&s, "teaches");
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: teaches,
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![0, 1],
        )
        .unwrap();
        let (count, _) = run_count(
            &s,
            &plan,
            &ExecOptions {
                threads: 16,
                morsel_size: 1,
                strategy: ProbeStrategy::AdaptiveBinary,
                guard: None,
                recorder: None,
            },
        )
        .expect("runs");
        assert_eq!(count, 4);
    }

    #[test]
    fn constant_key_probe_step() {
        // Second step keyed on a constant: probed once per input tuple;
        // the cursor makes repeats cheap (sequential hit distance 0).
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        let u2 = rid(&s, "U2");
        // ?x teaches ?c . ?x worksFor U2 — but written with the O-S
        // replica probed by Const(u2) each time and ?x as a value check.
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::OS,
                    key: Atom::Const(u2),
                    value: Atom::Var(0),
                },
            ],
            2,
            vec![0, 1],
        )
        .unwrap();
        let (count, stats) = run_count(&s, &plan, &ExecOptions::default()).expect("runs");
        assert_eq!(count, 2); // ProfB/Chem, ProfC/Lit
                              // 4 driver tuples → 4 probes of the constant key.
        assert_eq!(stats.total_searches(), 4);
    }

    /// Sink that panics on the first row it sees.
    #[derive(Debug)]
    struct PanicSink;

    impl Sink for PanicSink {
        fn push(&mut self, _row: &[Id]) {
            panic!("sink exploded");
        }
    }

    fn teaches_plan(s: &TripleStore) -> PhysicalPlan {
        let teaches = pid(s, "teaches");
        PhysicalPlan::new(
            vec![PlanStep {
                predicate: teaches,
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![0, 1],
        )
        .unwrap()
    }

    #[test]
    fn panicking_sink_is_contained() {
        let s = store();
        let plan = teaches_plan(&s);
        for threads in [1, 4] {
            let opts = ExecOptions::with_threads(threads);
            let thresholds = thresholds(&s);
            let src = ExecSource {
                store: &s,
                delta: None,
                thresholds: &thresholds,
            };
            let err = execute(src, &plan, &opts, Some(pool()), || PanicSink)
                .expect_err("sink panic must surface as an error");
            match &err.kind {
                ExecFailureKind::WorkerPanicked { message } => {
                    assert!(message.contains("sink exploded"), "got {message:?}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
        // The store is read-only during execution: it stays usable.
        let (count, _) = run_count(&s, &plan, &ExecOptions::with_threads(4)).expect("runs");
        assert_eq!(count, 4);
    }

    #[test]
    fn pre_cancelled_guard_stops_immediately() {
        let s = store();
        let plan = teaches_plan(&s);
        let guard = Arc::new(QueryGuard::unlimited());
        guard.cancel();
        let opts = ExecOptions {
            guard: Some(Arc::clone(&guard)),
            ..ExecOptions::with_threads(2)
        };
        let err = run_count(&s, &plan, &opts).expect_err("cancelled before start");
        assert_eq!(err.kind, ExecFailureKind::Cancelled);
        assert_eq!(err.rows, 0);
    }

    #[test]
    fn row_budget_enforced_even_below_poll_batch() {
        // The query yields 4 rows — far under GUARD_BATCH — so the
        // budget can only be caught by the worker-exit check.
        let s = store();
        let plan = teaches_plan(&s);
        let guard = Arc::new(QueryGuard::with_limits(None, Some(2)));
        let opts = ExecOptions {
            guard: Some(guard),
            ..ExecOptions::default()
        };
        let err = run_count(&s, &plan, &opts).expect_err("budget of 2 rows");
        match err.kind {
            ExecFailureKind::BudgetExceeded { rows } => assert_eq!(rows, 4),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_before_work() {
        let s = store();
        let plan = teaches_plan(&s);
        let guard = Arc::new(QueryGuard::with_limits(
            Some(std::time::Duration::ZERO),
            None,
        ));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let opts = ExecOptions {
            guard: Some(guard),
            ..ExecOptions::with_threads(2)
        };
        let err = run_count(&s, &plan, &opts).expect_err("deadline already passed");
        assert!(
            matches!(err.kind, ExecFailureKind::DeadlineExceeded { .. }),
            "got {:?}",
            err.kind
        );
    }

    #[test]
    fn completed_query_beats_late_cancel() {
        // Cancelling after the run finished must not matter for the
        // next run with a fresh guard.
        let s = store();
        let plan = teaches_plan(&s);
        let guard = Arc::new(QueryGuard::unlimited());
        let opts = ExecOptions {
            guard: Some(Arc::clone(&guard)),
            ..ExecOptions::default()
        };
        let (count, _) = run_count(&s, &plan, &opts).expect("runs");
        assert_eq!(count, 4);
        guard.cancel();
        let opts = ExecOptions::default();
        let (count, _) = run_count(&s, &plan, &opts).expect("fresh guard unaffected");
        assert_eq!(count, 4);
    }

    #[test]
    fn validate_rejects_zero_sizes() {
        assert_eq!(
            ExecOptions::with_threads(0).validate(),
            Err(ExecOptionsError::ZeroThreads)
        );
        let zero_morsels = ExecOptions {
            morsel_size: 0,
            ..ExecOptions::default()
        };
        assert_eq!(
            zero_morsels.validate(),
            Err(ExecOptionsError::ZeroMorselSize)
        );
        let opts = ExecOptions {
            threads: 3,
            morsel_size: 2,
            strategy: ProbeStrategy::AlwaysBinary,
            ..ExecOptions::default()
        };
        assert_eq!(opts.validate(), Ok(()));
    }

    /// Owned copy of an [`ExecRecord`]: (result_rows, step_rows,
    /// step_search, total_search, worker_units, morsels).
    type OwnedRecord = (u64, Vec<u64>, Vec<SearchStats>, SearchStats, Vec<u64>, u64);

    /// Captures the one record an execution emits, as owned data.
    #[derive(Default)]
    struct CaptureRecorder {
        seen: std::sync::Mutex<Vec<OwnedRecord>>,
    }

    impl Recorder for CaptureRecorder {
        fn record_exec(&self, r: &ExecRecord<'_>) {
            self.seen.lock().unwrap().push((
                r.result_rows,
                r.step_rows.to_vec(),
                r.step_search.to_vec(),
                r.total_search,
                r.worker_units.to_vec(),
                r.morsels,
            ));
        }
    }

    #[test]
    fn recorder_sees_aggregated_internals() {
        // ?x teaches ?c . ?x worksFor ?u — 4 driver tuples, 3 results.
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            vec![0, 1, 2],
        )
        .unwrap();
        // With morsel_size 1 each distinct driver key is one morsel:
        // ProfA, ProfB and ProfC teach.
        let domain = 3usize;
        for threads in [1usize, 4] {
            let rec = Arc::new(CaptureRecorder::default());
            let opts = ExecOptions {
                threads,
                morsel_size: 1,
                recorder: Some(Arc::clone(&rec) as Arc<dyn Recorder>),
                ..ExecOptions::default()
            };
            let (count, total) = run_count(&s, &plan, &opts).expect("runs");
            assert_eq!(count, 4);
            let seen = rec.seen.lock().unwrap();
            assert_eq!(seen.len(), 1, "exactly one record per execution");
            let (rows, step_rows, step_search, rec_total, units, morsels) = &seen[0];
            assert_eq!(*rows, 4);
            // One probe step: step_rows = [driver tuples, results].
            assert_eq!(step_rows, &vec![4, 4]);
            assert_eq!(step_search.len(), 1);
            assert_eq!(*rec_total, total);
            // One unit entry per participant: the submitter, plus
            // however many of the (morsel-count-clamped) helper seats
            // pool workers claimed before the cursor drained.
            assert!(
                (1..=threads.min(domain)).contains(&units.len()),
                "{} participants at threads {threads}",
                units.len()
            );
            assert_eq!(
                *morsels, domain as u64,
                "every in-domain morsel executed exactly once"
            );
            let unit_sum: u64 = units.iter().sum();
            assert_eq!(unit_sum, 4 + total.words_touched());
        }
    }

    #[test]
    fn recorder_fires_on_failed_runs_too() {
        let s = store();
        let plan = teaches_plan(&s);
        let rec = Arc::new(CaptureRecorder::default());
        let guard = Arc::new(QueryGuard::with_limits(None, Some(2)));
        let opts = ExecOptions {
            guard: Some(guard),
            recorder: Some(Arc::clone(&rec) as Arc<dyn Recorder>),
            ..ExecOptions::default()
        };
        run_count(&s, &plan, &opts).expect_err("budget of 2 rows");
        assert_eq!(rec.seen.lock().unwrap().len(), 1);
    }

    #[test]
    fn zero_arity_count() {
        // Projection empty but variables exist: every match counts.
        let s = store();
        let teaches = pid(&s, "teaches");
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: teaches,
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![],
        )
        .unwrap();
        let (count, _) = run_count(&s, &plan, &ExecOptions::default()).expect("runs");
        assert_eq!(count, 4);
    }

    /// Collect sink whose first row waits until a *second* participant
    /// has produced one too: a run through it is provably parallel
    /// before its rows are compared (the submitter blocks inside its
    /// first push, so the second arrival can only be a pool helper).
    struct GatedSink {
        inner: CollectSink,
        arrived: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Sink for GatedSink {
        fn push(&mut self, row: &[Id]) {
            use std::sync::atomic::Ordering::SeqCst;
            if self.inner.rows == 0 {
                self.arrived.fetch_add(1, SeqCst);
                let waited = std::time::Instant::now();
                while self.arrived.load(SeqCst) < 2
                    && waited.elapsed() < std::time::Duration::from_secs(10)
                {
                    std::thread::yield_now();
                }
            }
            self.inner.push(row);
        }
    }

    /// The failure class of a guarded run (`None` = completed).
    fn failure_class(r: ExecResult<Vec<Id>>) -> Option<std::mem::Discriminant<ExecFailureKind>> {
        r.err().map(|e| std::mem::discriminant(&e.kind))
    }

    #[test]
    fn pooled_matches_inline_rows_and_guard_classes() {
        // The same query with k pool helpers and inline on the calling
        // thread must produce identical flattened rows — the
        // morsel-order merge makes every shape equal to the one-thread
        // run — and must end in the same failure class under every
        // guard (cancel / deadline / budget / panic).
        let s = store();
        let teaches = pid(&s, "teaches");
        let works = pid(&s, "worksFor");
        let plan = PhysicalPlan::new(
            vec![
                PlanStep {
                    predicate: teaches,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(1),
                },
                PlanStep {
                    predicate: works,
                    order: SortOrder::SO,
                    key: Atom::Var(0),
                    value: Atom::Var(2),
                },
            ],
            3,
            vec![0, 1, 2],
        )
        .unwrap();
        let pool = WorkerPool::new(3);
        let inline = collect_flat(&s, None, &plan, &ExecOptions::default(), None).expect("runs");
        assert_eq!(inline.len(), 4 * 3);
        for threads in [1usize, 2, 4, 9] {
            for morsel_size in [1usize, 2, 16384] {
                let opts = ExecOptions {
                    threads,
                    morsel_size,
                    ..ExecOptions::default()
                };
                let pooled = collect_flat(&s, None, &plan, &opts, Some(&pool)).expect("runs");
                assert_eq!(
                    pooled, inline,
                    "rows changed at threads {threads} morsel {morsel_size}"
                );
            }
        }
        assert!(pool.stats().jobs > 0, "multi-morsel runs must use the pool");

        // A run that cannot finish until a helper has joined it.
        let thresholds = thresholds(&s);
        let src = ExecSource {
            store: &s,
            delta: None,
            thresholds: &thresholds,
        };
        let wide = ExecOptions {
            threads: 3,
            morsel_size: 1,
            ..ExecOptions::default()
        };
        let arrived = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let joins_before = pool.stats().helper_joins;
        let (sinks, _) = execute(src, &plan, &wide, Some(&pool), move || GatedSink {
            inner: CollectSink::default(),
            arrived: Arc::clone(&arrived),
        })
        .expect("runs");
        let gated: Vec<Id> = sinks
            .iter()
            .flat_map(|g| g.inner.data.iter().copied())
            .collect();
        assert_eq!(gated, inline, "a run with helpers reorders nothing");
        assert!(
            pool.stats().helper_joins > joins_before,
            "the gated run must have seated a pool helper"
        );

        // Guard classes: helpers requested (3 morsels, 3 threads) vs
        // inline, same trip.
        type MakeGuard = fn() -> Arc<QueryGuard>;
        let guards: [(&str, MakeGuard); 4] = [
            ("cancel", || {
                let g = Arc::new(QueryGuard::unlimited());
                g.cancel();
                g
            }),
            ("deadline", || {
                let g = Arc::new(QueryGuard::with_limits(
                    Some(std::time::Duration::ZERO),
                    None,
                ));
                std::thread::sleep(std::time::Duration::from_millis(2));
                g
            }),
            ("budget", || {
                Arc::new(QueryGuard::with_limits(None, Some(2)))
            }),
            ("none", || Arc::new(QueryGuard::unlimited())),
        ];
        for (name, make) in guards {
            let opts = |guard| ExecOptions {
                guard: Some(guard),
                ..wide.clone()
            };
            let pooled = collect_flat(&s, None, &plan, &opts(make()), Some(&pool));
            let alone = collect_flat(&s, None, &plan, &opts(make()), None);
            assert_eq!(
                pooled.is_err(),
                name != "none",
                "{name}: unexpected outcome {pooled:?}"
            );
            assert_eq!(failure_class(pooled), failure_class(alone), "{name}");
        }
        let panic_class = |pool| {
            let err = execute(src, &plan, &wide, pool, || PanicSink).expect_err("sink panics");
            assert!(
                matches!(err.kind, ExecFailureKind::WorkerPanicked { .. }),
                "got {:?}",
                err.kind
            );
            std::mem::discriminant(&err.kind)
        };
        assert_eq!(panic_class(Some(&pool)), panic_class(None));
        // The pool stays usable after every early exit.
        let rows = collect_flat(&s, None, &plan, &wide, Some(&pool)).expect("pool still serves");
        assert_eq!(rows, inline);
    }

    #[test]
    fn one_morsel_run_on_a_pooled_engine_stays_inline() {
        // The small-query rule: a domain that fits one morsel never
        // touches the pool, however many threads were asked for, and
        // resolves the plan exactly once. The dirty driver makes that
        // one resolution the expensive kind (merged key domain).
        let (base, ov, rebuilt) = dirty_and_rebuilt();
        let teaches = pid(&base, "teaches");
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: teaches,
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![0, 1],
        )
        .unwrap();
        let pool = WorkerPool::new(2);
        let opts = ExecOptions::with_threads(3);
        let before = resolutions(&base);
        let dirty = collect_flat(&base, Some(&ov), &plan, &opts, Some(&pool)).expect("runs");
        assert_eq!(resolutions(&base) - before, 1);
        assert_eq!(pool.stats().jobs, 0, "one morsel: nothing to share");
        let clean = collect_flat(&rebuilt, None, &plan, &opts, None).expect("runs");
        assert_eq!(dirty, clean);

        // The same request over several morsels is what submits a job.
        let split = ExecOptions {
            morsel_size: 1,
            ..opts
        };
        let dirty = collect_flat(&base, Some(&ov), &plan, &split, Some(&pool)).expect("runs");
        assert_eq!(pool.stats().jobs, 1);
        assert_eq!(dirty, clean);
    }

    #[test]
    fn pooled_run_resolves_its_plan_once() {
        // The submitter and every pool helper share one resolved run:
        // a multi-morsel run resolves its plan exactly once, inline or
        // with helpers. The dirty driver makes that one resolution the
        // expensive kind (merged key domain).
        let (base, ov, _) = dirty_and_rebuilt();
        let plan = PhysicalPlan::new(
            vec![PlanStep {
                predicate: pid(&base, "teaches"),
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            }],
            2,
            vec![0, 1],
        )
        .unwrap();
        let thresholds = thresholds(&base);
        let src = ExecSource {
            store: &base,
            delta: Some(&ov),
            thresholds: &thresholds,
        };
        let pool = WorkerPool::new(2);
        let inline = ExecOptions {
            threads: 1,
            morsel_size: 1,
            ..ExecOptions::default()
        };
        let before = resolutions(&base);
        execute(src, &plan, &inline, Some(&pool), CollectSink::default).expect("runs");
        assert_eq!(resolutions(&base) - before, 1, "one thread");
        assert_eq!(pool.stats().jobs, 0);

        // Three threads over three morsels. The gate holds the first
        // participant until a second one arrives, so a helper joins.
        let arrived = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let before = resolutions(&base);
        let wide = ExecOptions {
            threads: 3,
            ..inline
        };
        execute(src, &plan, &wide, Some(&pool), move || GatedSink {
            inner: CollectSink::default(),
            arrived: Arc::clone(&arrived),
        })
        .expect("runs");
        assert_eq!(resolutions(&base) - before, 1, "three threads");
        assert!(pool.stats().helper_joins > 0, "a helper must have joined");
    }

    #[test]
    fn pooled_panic_fails_only_owner_and_pool_survives() {
        // A panicking query on the pool surfaces as WorkerPanicked, the
        // worker returns to service, and 100 subsequent queries on the
        // same pool succeed with no thread growth or loss.
        let s = store();
        let plan = teaches_plan(&s);
        let pool = WorkerPool::new(2);
        let workers_before = pool.workers();
        let thresholds = thresholds(&s);
        let src = ExecSource {
            store: &s,
            delta: None,
            thresholds: &thresholds,
        };
        // morsel_size 1 → multiple morsels → helpers requested → the
        // panic happens inside pool workers, not only the submitter.
        let opts = ExecOptions {
            threads: 3,
            morsel_size: 1,
            ..ExecOptions::default()
        };
        let err = execute(src, &plan, &opts, Some(&pool), || PanicSink)
            .expect_err("sink panic must surface as an error");
        match &err.kind {
            ExecFailureKind::WorkerPanicked { message } => {
                assert!(message.contains("sink exploded"), "got {message:?}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        for _ in 0..100 {
            let rows =
                collect_flat(&s, None, &plan, &opts, Some(&pool)).expect("pool still serves");
            assert_eq!(rows.len(), 8, "4 rows × arity 2");
        }
        assert_eq!(pool.workers(), workers_before, "no pool thread leak");
    }
}
