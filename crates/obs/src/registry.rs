//! The engine-wide metric registry.
//!
//! [`EngineMetrics`] owns one instance of every metric family the PARJ
//! engine records. Families with a fixed label set (query outcomes,
//! phases, search kinds) are plain arrays of atomics indexed by enum —
//! recording is a single relaxed `fetch_add` with no hashing and no
//! locking. Families whose labels depend on the data (per-predicate
//! replica bytes) use [`GaugeVec`], whose lock is only taken on the
//! store-build path.

use crate::metrics::{Counter, Gauge, GaugeVec, Histogram};
use crate::snapshot::{
    FamilySnapshot, HistogramSnapshot, MetricKind, MetricsSnapshot, Sample, SampleValue,
};

/// How a query run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcomeClass {
    /// Completed and returned results.
    Ok,
    /// Rejected before or during preparation (parse, translation,
    /// optimization, configuration).
    Error,
    /// Stopped by its wall-clock deadline.
    Timeout,
    /// Stopped by its result-row budget.
    Budget,
    /// Stopped by its cancellation token.
    Cancelled,
    /// A worker panicked (contained; the engine survived).
    Panicked,
}

impl QueryOutcomeClass {
    /// Stable label values for exposition.
    pub const ALL: [QueryOutcomeClass; 6] = [
        QueryOutcomeClass::Ok,
        QueryOutcomeClass::Error,
        QueryOutcomeClass::Timeout,
        QueryOutcomeClass::Budget,
        QueryOutcomeClass::Cancelled,
        QueryOutcomeClass::Panicked,
    ];

    /// The label value rendered for this class.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryOutcomeClass::Ok => "ok",
            QueryOutcomeClass::Error => "error",
            QueryOutcomeClass::Timeout => "timeout",
            QueryOutcomeClass::Budget => "budget",
            QueryOutcomeClass::Cancelled => "cancelled",
            QueryOutcomeClass::Panicked => "panicked",
        }
    }
}

/// A query-lifecycle phase, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPhase {
    /// SPARQL parsing.
    Parse,
    /// Dictionary translation of the parsed query.
    Translate,
    /// Fingerprinting and plan/result cache probes.
    CacheLookup,
    /// Statistics-driven join ordering.
    Optimize,
    /// Parallel join execution.
    Execute,
    /// Result decode / ordering / aggregation.
    Decode,
}

impl QueryPhase {
    /// Phases in pipeline order.
    pub const ALL: [QueryPhase; 6] = [
        QueryPhase::Parse,
        QueryPhase::Translate,
        QueryPhase::CacheLookup,
        QueryPhase::Optimize,
        QueryPhase::Execute,
        QueryPhase::Decode,
    ];

    /// The label value rendered for this phase.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryPhase::Parse => "parse",
            QueryPhase::Translate => "translate",
            QueryPhase::CacheLookup => "cache_lookup",
            QueryPhase::Optimize => "optimize",
            QueryPhase::Execute => "execute",
            QueryPhase::Decode => "decode",
        }
    }
}

/// Which cache tier a cache event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// The optimized-plan cache (skips the optimize phase on hit).
    Plan,
    /// The result cache (skips execution entirely on hit).
    Result,
}

impl CacheKind {
    /// Both tiers, in exposition order.
    pub const ALL: [CacheKind; 2] = [CacheKind::Plan, CacheKind::Result];

    /// The label value rendered for this tier.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheKind::Plan => "plan",
            CacheKind::Result => "result",
        }
    }
}

/// A search operation kind of the adaptive probe (Algorithm 1 plus the
/// ID-to-Position index of §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    /// Sequential search from the per-step cursor (includes galloping).
    Sequential,
    /// Whole-array binary search.
    Binary,
    /// ID-to-Position index lookup.
    Index,
}

impl SearchKind {
    /// All kinds, in exposition order.
    pub const ALL: [SearchKind; 3] = [
        SearchKind::Sequential,
        SearchKind::Binary,
        SearchKind::Index,
    ];

    /// The label value rendered for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            SearchKind::Sequential => "sequential",
            SearchKind::Binary => "binary",
            SearchKind::Index => "index",
        }
    }
}

/// Search-mix totals for one query, already summed across workers.
/// Plain data so recorders stay decoupled from the executor's types.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchTotals {
    /// Sequential searches chosen.
    pub sequential: u64,
    /// Binary searches chosen.
    pub binary: u64,
    /// ID-to-Position lookups chosen.
    pub index: u64,
    /// Array words touched by sequential searches.
    pub sequential_steps: u64,
    /// Array words touched by binary searches.
    pub binary_steps: u64,
    /// Bitmap/anchor words touched by index lookups.
    pub index_words: u64,
    /// Group membership probes (second-column checks).
    pub group_probes: u64,
}

/// Cumulative totals of the engine's persistent worker pool, as plain
/// data so the registry stays decoupled from the executor's types.
/// All figures except `workers` and `queue_depth` are monotone
/// counters maintained by the pool itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolTotals {
    /// Worker threads the pool owns (constant for its lifetime).
    pub workers: u64,
    /// Jobs submitted across the pool's lifetime.
    pub jobs: u64,
    /// Times an idle worker joined a job as a helper.
    pub helper_joins: u64,
    /// Microseconds workers spent running job bodies.
    pub busy_micros: u64,
    /// Microseconds workers spent parked waiting for work.
    pub park_micros: u64,
    /// Jobs currently queued and accepting helpers.
    pub queue_depth: u64,
    /// Participant panics contained by the worker loop's backstop.
    pub panics_contained: u64,
}

/// Histogram bounds for query durations, in microseconds.
const DURATION_BOUNDS: [u64; 7] = [
    100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000,
];
/// Histogram bounds for result rows per query.
const ROWS_BOUNDS: [u64; 7] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];
/// Histogram bounds for the shard-load imbalance factor ×1000
/// (1000 = perfectly balanced).
const IMBALANCE_BOUNDS: [u64; 7] = [1_000, 1_100, 1_250, 1_500, 2_000, 4_000, 8_000];

/// Every metric family the engine records. One instance is shared
/// (behind an `Arc`) by an engine, the loader that built it, and any
/// exposition endpoint.
#[derive(Debug)]
pub struct EngineMetrics {
    // -- query lifecycle --------------------------------------------------
    /// `parj_queries_total{outcome}`.
    queries_total: [Counter; 6],
    /// `parj_queries_inflight`.
    queries_inflight: Gauge,
    /// `parj_query_phase_micros_total{phase}`.
    phase_micros: [Counter; 6],
    /// `parj_query_duration_micros` histogram.
    query_duration: Histogram,
    /// `parj_query_rows` histogram.
    query_rows: Histogram,
    /// `parj_result_rows_total`.
    result_rows_total: Counter,
    // -- plan/result cache --------------------------------------------------
    /// `parj_cache_hits_total{cache}`.
    cache_hits: [Counter; 2],
    /// `parj_cache_misses_total{cache}`.
    cache_misses: [Counter; 2],
    /// `parj_cache_evictions_total{cache}`.
    cache_evictions: [Counter; 2],
    /// `parj_cache_resident_bytes{cache}`.
    cache_resident_bytes: [Gauge; 2],
    /// `parj_cache_time_saved_micros_total{phase}` — wall time the
    /// populating run spent in phases a cache hit skipped.
    cache_time_saved: [Counter; 6],
    // -- executor internals -----------------------------------------------
    /// `parj_searches_total{kind}`.
    searches_total: [Counter; 3],
    /// `parj_search_words_total{kind}`.
    search_words_total: [Counter; 3],
    /// `parj_group_probes_total`.
    group_probes_total: Counter,
    /// `parj_probe_rows_total`.
    probe_rows_total: Counter,
    /// `parj_exec_morsels_total`.
    morsels_total: Counter,
    /// `parj_shard_imbalance_x1000` histogram (imbalance across the
    /// per-participant totals of the morsel distribution).
    shard_imbalance: Histogram,
    // -- worker pool --------------------------------------------------------
    /// `parj_pool_workers` gauge.
    pool_workers: Gauge,
    /// `parj_pool_queue_depth` gauge.
    pool_queue_depth: Gauge,
    /// `parj_pool_jobs_total`. Gauge storage: the pool maintains the
    /// cumulative total itself; publishing replaces the value.
    pool_jobs: Gauge,
    /// `parj_pool_helper_joins_total` (gauge storage, see above).
    pool_helper_joins: Gauge,
    /// `parj_pool_busy_micros_total` (gauge storage, see above).
    pool_busy_micros: Gauge,
    /// `parj_pool_park_micros_total` (gauge storage, see above).
    pool_park_micros: Gauge,
    /// `parj_pool_panics_contained_total` (gauge storage, see above).
    pool_panics_contained: Gauge,
    /// `parj_lock_wait_micros{level}` — cumulative time threads spent
    /// blocked acquiring ordered locks, per hierarchy level (gauge
    /// storage: `parj-sync` owns the counters; publishing replaces).
    lock_wait_micros: GaugeVec,
    // -- load pipeline -----------------------------------------------------
    /// `parj_load_statements_total{result}` (loaded / skipped).
    load_statements: [Counter; 2],
    /// `parj_load_micros_total`.
    load_micros_total: Counter,
    /// `parj_load_bytes_total`.
    load_bytes_total: Counter,
    // -- mutation delta ----------------------------------------------------
    /// `parj_delta_resident_triples`.
    delta_resident_triples: Gauge,
    /// `parj_delta_resident_bytes`.
    delta_resident_bytes: Gauge,
    /// `parj_delta_compactions_total`.
    delta_compactions_total: Counter,
    /// `parj_delta_compaction_micros`.
    delta_compaction_micros: Counter,
    /// `parj_cache_invalidations_total`.
    cache_invalidations_total: Counter,
    // -- store / dictionary memory ----------------------------------------
    /// `parj_store_triples`.
    store_triples: Gauge,
    /// `parj_store_partition_bytes`.
    store_partition_bytes: Gauge,
    /// `parj_store_replica_bytes{predicate}`.
    replica_bytes: GaugeVec,
    /// `parj_dict_bytes{section}` (resources / predicates).
    dict_bytes: [Gauge; 2],
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        EngineMetrics {
            queries_total: Default::default(),
            queries_inflight: Gauge::new(),
            phase_micros: Default::default(),
            query_duration: Histogram::new(&DURATION_BOUNDS),
            query_rows: Histogram::new(&ROWS_BOUNDS),
            result_rows_total: Counter::new(),
            cache_hits: Default::default(),
            cache_misses: Default::default(),
            cache_evictions: Default::default(),
            cache_resident_bytes: Default::default(),
            cache_time_saved: Default::default(),
            searches_total: Default::default(),
            search_words_total: Default::default(),
            group_probes_total: Counter::new(),
            probe_rows_total: Counter::new(),
            morsels_total: Counter::new(),
            shard_imbalance: Histogram::new(&IMBALANCE_BOUNDS),
            pool_workers: Gauge::new(),
            pool_queue_depth: Gauge::new(),
            pool_jobs: Gauge::new(),
            pool_helper_joins: Gauge::new(),
            pool_busy_micros: Gauge::new(),
            pool_park_micros: Gauge::new(),
            pool_panics_contained: Gauge::new(),
            lock_wait_micros: GaugeVec::new(),
            load_statements: Default::default(),
            load_micros_total: Counter::new(),
            load_bytes_total: Counter::new(),
            delta_resident_triples: Gauge::new(),
            delta_resident_bytes: Gauge::new(),
            delta_compactions_total: Counter::new(),
            delta_compaction_micros: Counter::new(),
            cache_invalidations_total: Counter::new(),
            store_triples: Gauge::new(),
            store_partition_bytes: Gauge::new(),
            replica_bytes: GaugeVec::new(),
            dict_bytes: Default::default(),
        }
    }

    /// Marks a query as started; pair with [`EngineMetrics::query_finished`].
    pub fn query_started(&self) {
        self.queries_inflight.add(1);
    }

    /// Marks a query as finished (any outcome).
    pub fn query_finished(&self) {
        self.queries_inflight.sub(1);
    }

    /// Records one completed query run: its outcome class, per-phase
    /// wall times (µs), total wall time, result rows, and the merged
    /// search mix of its workers (partial progress for failed runs).
    pub fn record_query(
        &self,
        outcome: QueryOutcomeClass,
        phases: &[(QueryPhase, u64)],
        total_micros: u64,
        rows: u64,
        search: &SearchTotals,
    ) {
        self.queries_total[outcome as usize].inc();
        for &(phase, micros) in phases {
            self.phase_micros[phase as usize].add(micros);
        }
        self.query_duration.observe(total_micros);
        self.query_rows.observe(rows);
        self.result_rows_total.add(rows);
        self.searches_total[SearchKind::Sequential as usize].add(search.sequential);
        self.searches_total[SearchKind::Binary as usize].add(search.binary);
        self.searches_total[SearchKind::Index as usize].add(search.index);
        self.search_words_total[SearchKind::Sequential as usize].add(search.sequential_steps);
        self.search_words_total[SearchKind::Binary as usize].add(search.binary_steps);
        self.search_words_total[SearchKind::Index as usize].add(search.index_words);
        self.group_probes_total.add(search.group_probes);
    }

    /// Records one cache probe: a hit or a miss against the given tier.
    /// Bypassed requests record nothing (they never probed).
    pub fn record_cache_lookup(&self, kind: CacheKind, hit: bool) {
        if hit {
            self.cache_hits[kind as usize].inc();
        } else {
            self.cache_misses[kind as usize].inc();
        }
    }

    /// Records `n` entries evicted from the given tier by byte-budget
    /// pressure.
    pub fn record_cache_evictions(&self, kind: CacheKind, n: u64) {
        self.cache_evictions[kind as usize].add(n);
    }

    /// Replaces the resident-bytes gauge of the given tier.
    pub fn set_cache_resident(&self, kind: CacheKind, bytes: u64) {
        self.cache_resident_bytes[kind as usize].set(bytes);
    }

    /// Records wall time a cache hit skipped: the time the populating
    /// run spent in `phase` (optimize for plan hits; execute for
    /// result hits).
    pub fn record_cache_time_saved(&self, phase: QueryPhase, micros: u64) {
        self.cache_time_saved[phase as usize].add(micros);
    }

    /// Records one plan execution's internals: binding tuples that
    /// entered probe steps, the load-imbalance factor ×1000 across
    /// participant totals (`max_units × participants / total_units`;
    /// 1000 = balanced), and the driver morsels executed.
    pub fn record_plan_exec(&self, probe_rows: u64, imbalance_x1000: u64, morsels: u64) {
        self.probe_rows_total.add(probe_rows);
        self.shard_imbalance.observe(imbalance_x1000);
        self.morsels_total.add(morsels);
    }

    /// Replaces the worker-pool families from the pool's own cumulative
    /// totals (the pool is the source of truth; every figure except the
    /// gauges is monotone).
    pub fn publish_pool(&self, t: &PoolTotals) {
        self.pool_workers.set(t.workers);
        self.pool_queue_depth.set(t.queue_depth);
        self.pool_jobs.set(t.jobs);
        self.pool_helper_joins.set(t.helper_joins);
        self.pool_busy_micros.set(t.busy_micros);
        self.pool_park_micros.set(t.park_micros);
        self.pool_panics_contained.set(t.panics_contained);
    }

    /// Replaces the per-level lock-contention family from `parj-sync`'s
    /// process-global wait counters (`lock_wait_totals()`); like the
    /// pool families, the source owns the cumulative totals and a
    /// snapshot publishes the latest view.
    pub fn publish_lock_waits<'a>(&self, totals: impl IntoIterator<Item = (&'a str, u64)>) {
        self.lock_wait_micros
            .replace(totals.into_iter().map(|(level, v)| (level.to_string(), v)));
    }

    /// Records one bulk-load: statements kept, statements skipped
    /// (lossy mode), wall time, and input bytes.
    pub fn record_load(&self, loaded: u64, skipped: u64, micros: u64, bytes: u64) {
        self.load_statements[0].add(loaded);
        self.load_statements[1].add(skipped);
        self.load_micros_total.add(micros);
        self.load_bytes_total.add(bytes);
    }

    /// Replaces the mutation-delta residency gauges after a mutation
    /// batch or a rebuild: uncompacted add/delete pairs still resident
    /// in the overlay, and overlay heap bytes (runs, compacted
    /// partitions, dictionary extension).
    pub fn set_delta_resident(&self, triples: u64, bytes: u64) {
        self.delta_resident_triples.set(triples);
        self.delta_resident_bytes.set(bytes);
    }

    /// Records delta compactions: how many predicates were compacted and
    /// the wall time they took together.
    pub fn record_compaction(&self, count: u64, micros: u64) {
        self.delta_compactions_total.add(count);
        self.delta_compaction_micros.add(micros);
    }

    /// Records `n` per-predicate cache epoch bumps performed by a
    /// mutation batch (each bump invalidates every entry referencing
    /// that predicate).
    pub fn record_cache_invalidations(&self, n: u64) {
        self.cache_invalidations_total.add(n);
    }

    /// Replaces the store/dictionary memory gauges after a (re)build:
    /// resident triples, total partition bytes, per-predicate replica
    /// bytes, and dictionary arena bytes split by section.
    pub fn set_store_memory(
        &self,
        triples: u64,
        partition_bytes: u64,
        per_predicate_bytes: impl IntoIterator<Item = (String, u64)>,
        dict_resource_bytes: u64,
        dict_predicate_bytes: u64,
    ) {
        self.store_triples.set(triples);
        self.store_partition_bytes.set(partition_bytes);
        self.replica_bytes.replace(per_predicate_bytes);
        self.dict_bytes[0].set(dict_resource_bytes);
        self.dict_bytes[1].set(dict_predicate_bytes);
    }

    /// Captures every family. Cheap (relaxed loads) and safe to call
    /// while queries are recording.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counter_fam = |name: &str, help: &str, samples: Vec<Sample>| FamilySnapshot {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Counter,
            samples,
        };
        let gauge_fam = |name: &str, help: &str, samples: Vec<Sample>| FamilySnapshot {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Gauge,
            samples,
        };
        let hist_fam = |name: &str, help: &str, h: &Histogram| FamilySnapshot {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Histogram,
            samples: vec![Sample {
                labels: Vec::new(),
                value: SampleValue::Histogram(HistogramSnapshot {
                    buckets: h.cumulative_buckets(),
                    sum: h.sum(),
                    count: h.count(),
                }),
            }],
        };
        let plain = |v: u64| Sample {
            labels: Vec::new(),
            value: SampleValue::Integer(v),
        };
        let labelled = |k: &str, v: &str, value: u64| Sample {
            labels: vec![(k.to_string(), v.to_string())],
            value: SampleValue::Integer(value),
        };

        MetricsSnapshot {
            families: vec![
                counter_fam(
                    "parj_queries_total",
                    "Queries run, by outcome class.",
                    QueryOutcomeClass::ALL
                        .iter()
                        .map(|&c| {
                            labelled("outcome", c.as_str(), self.queries_total[c as usize].get())
                        })
                        .collect(),
                ),
                gauge_fam(
                    "parj_queries_inflight",
                    "Queries currently executing.",
                    vec![plain(self.queries_inflight.get())],
                ),
                counter_fam(
                    "parj_query_phase_micros_total",
                    "Wall time spent per query phase, microseconds.",
                    QueryPhase::ALL
                        .iter()
                        .map(|&p| {
                            labelled("phase", p.as_str(), self.phase_micros[p as usize].get())
                        })
                        .collect(),
                ),
                hist_fam(
                    "parj_query_duration_micros",
                    "Total wall time per query, microseconds.",
                    &self.query_duration,
                ),
                hist_fam(
                    "parj_query_rows",
                    "Result rows per query.",
                    &self.query_rows,
                ),
                counter_fam(
                    "parj_result_rows_total",
                    "Result rows produced across all queries.",
                    vec![plain(self.result_rows_total.get())],
                ),
                counter_fam(
                    "parj_cache_hits_total",
                    "Cache probes answered from the cache, by tier.",
                    CacheKind::ALL
                        .iter()
                        .map(|&k| labelled("cache", k.as_str(), self.cache_hits[k as usize].get()))
                        .collect(),
                ),
                counter_fam(
                    "parj_cache_misses_total",
                    "Cache probes that missed (including stale-generation removals), by tier.",
                    CacheKind::ALL
                        .iter()
                        .map(|&k| {
                            labelled("cache", k.as_str(), self.cache_misses[k as usize].get())
                        })
                        .collect(),
                ),
                counter_fam(
                    "parj_cache_evictions_total",
                    "Entries evicted by byte-budget pressure, by tier.",
                    CacheKind::ALL
                        .iter()
                        .map(|&k| {
                            labelled("cache", k.as_str(), self.cache_evictions[k as usize].get())
                        })
                        .collect(),
                ),
                gauge_fam(
                    "parj_cache_resident_bytes",
                    "Bytes charged against the cache byte budget, by tier.",
                    CacheKind::ALL
                        .iter()
                        .map(|&k| {
                            labelled(
                                "cache",
                                k.as_str(),
                                self.cache_resident_bytes[k as usize].get(),
                            )
                        })
                        .collect(),
                ),
                counter_fam(
                    "parj_cache_time_saved_micros_total",
                    "Wall time cache hits skipped, by the phase they skipped.",
                    QueryPhase::ALL
                        .iter()
                        .map(|&p| {
                            labelled("phase", p.as_str(), self.cache_time_saved[p as usize].get())
                        })
                        .collect(),
                ),
                counter_fam(
                    "parj_searches_total",
                    "Probe searches by kind (the adaptive mix of Algorithm 1).",
                    SearchKind::ALL
                        .iter()
                        .map(|&k| {
                            labelled("kind", k.as_str(), self.searches_total[k as usize].get())
                        })
                        .collect(),
                ),
                counter_fam(
                    "parj_search_words_total",
                    "Array words touched by probe searches, by kind.",
                    SearchKind::ALL
                        .iter()
                        .map(|&k| {
                            labelled(
                                "kind",
                                k.as_str(),
                                self.search_words_total[k as usize].get(),
                            )
                        })
                        .collect(),
                ),
                counter_fam(
                    "parj_group_probes_total",
                    "Membership checks inside value groups.",
                    vec![plain(self.group_probes_total.get())],
                ),
                counter_fam(
                    "parj_probe_rows_total",
                    "Binding tuples that entered probe steps.",
                    vec![plain(self.probe_rows_total.get())],
                ),
                counter_fam(
                    "parj_exec_morsels_total",
                    "Driver morsels dispatched to executor participants.",
                    vec![plain(self.morsels_total.get())],
                ),
                hist_fam(
                    "parj_shard_imbalance_x1000",
                    "Participant load imbalance per plan execution over the morsel \
                     distribution, x1000 (1000 = balanced).",
                    &self.shard_imbalance,
                ),
                gauge_fam(
                    "parj_pool_workers",
                    "Worker threads owned by the persistent pool.",
                    vec![plain(self.pool_workers.get())],
                ),
                gauge_fam(
                    "parj_pool_queue_depth",
                    "Pool jobs currently queued and accepting helpers.",
                    vec![plain(self.pool_queue_depth.get())],
                ),
                counter_fam(
                    "parj_pool_jobs_total",
                    "Jobs submitted to the persistent pool.",
                    vec![plain(self.pool_jobs.get())],
                ),
                counter_fam(
                    "parj_pool_helper_joins_total",
                    "Times an idle pool worker joined a job as a helper.",
                    vec![plain(self.pool_helper_joins.get())],
                ),
                counter_fam(
                    "parj_pool_busy_micros_total",
                    "Microseconds pool workers spent running job bodies.",
                    vec![plain(self.pool_busy_micros.get())],
                ),
                counter_fam(
                    "parj_pool_park_micros_total",
                    "Microseconds pool workers spent parked waiting for work.",
                    vec![plain(self.pool_park_micros.get())],
                ),
                counter_fam(
                    "parj_pool_panics_contained_total",
                    "Participant panics contained by the pool worker loop.",
                    vec![plain(self.pool_panics_contained.get())],
                ),
                counter_fam(
                    "parj_lock_wait_micros",
                    "Microseconds threads spent blocked acquiring ordered locks, \
                     by hierarchy level.",
                    self.lock_wait_micros
                        .get_all()
                        .into_iter()
                        .map(|(level, v)| labelled("level", &level, v))
                        .collect(),
                ),
                counter_fam(
                    "parj_load_statements_total",
                    "Statements processed by bulk loads, by result.",
                    vec![
                        labelled("result", "loaded", self.load_statements[0].get()),
                        labelled("result", "skipped", self.load_statements[1].get()),
                    ],
                ),
                counter_fam(
                    "parj_load_micros_total",
                    "Wall time spent in bulk loads, microseconds.",
                    vec![plain(self.load_micros_total.get())],
                ),
                counter_fam(
                    "parj_load_bytes_total",
                    "Input bytes consumed by bulk loads.",
                    vec![plain(self.load_bytes_total.get())],
                ),
                gauge_fam(
                    "parj_delta_resident_triples",
                    "Uncompacted add/delete pairs resident in the mutation delta.",
                    vec![plain(self.delta_resident_triples.get())],
                ),
                gauge_fam(
                    "parj_delta_resident_bytes",
                    "Heap bytes held by the mutation delta overlay.",
                    vec![plain(self.delta_resident_bytes.get())],
                ),
                counter_fam(
                    "parj_delta_compactions_total",
                    "Per-predicate delta compactions performed.",
                    vec![plain(self.delta_compactions_total.get())],
                ),
                counter_fam(
                    "parj_delta_compaction_micros",
                    "Wall time spent compacting delta runs, microseconds.",
                    vec![plain(self.delta_compaction_micros.get())],
                ),
                counter_fam(
                    "parj_cache_invalidations_total",
                    "Per-predicate cache epoch bumps performed by mutation batches.",
                    vec![plain(self.cache_invalidations_total.get())],
                ),
                gauge_fam(
                    "parj_store_triples",
                    "Triples resident in the finalized store.",
                    vec![plain(self.store_triples.get())],
                ),
                gauge_fam(
                    "parj_store_partition_bytes",
                    "Bytes held by vertical partitions (both replica orders).",
                    vec![plain(self.store_partition_bytes.get())],
                ),
                gauge_fam(
                    "parj_store_replica_bytes",
                    "Bytes held by the partition of each predicate.",
                    self.replica_bytes
                        .get_all()
                        .into_iter()
                        .map(|(pred, v)| labelled("predicate", &pred, v))
                        .collect(),
                ),
                gauge_fam(
                    "parj_dict_bytes",
                    "Dictionary arena bytes, by section.",
                    vec![
                        labelled("section", "resources", self.dict_bytes[0].get()),
                        labelled("section", "predicates", self.dict_bytes[1].get()),
                    ],
                ),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lists_every_family_once() {
        let m = EngineMetrics::new();
        let snap = m.snapshot();
        let mut names: Vec<_> = snap.families.iter().map(|f| f.name.clone()).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate family names");
        assert!(total >= 12, "expected >= 12 families, got {total}");
    }

    #[test]
    fn record_query_feeds_families() {
        let m = EngineMetrics::new();
        m.record_query(
            QueryOutcomeClass::Ok,
            &[(QueryPhase::Parse, 10), (QueryPhase::Execute, 200)],
            250,
            42,
            &SearchTotals {
                sequential: 5,
                binary: 3,
                index: 1,
                ..SearchTotals::default()
            },
        );
        let snap = m.snapshot();
        assert_eq!(
            snap.value("parj_queries_total", &[("outcome", "ok")]),
            Some(1)
        );
        assert_eq!(
            snap.value("parj_query_phase_micros_total", &[("phase", "execute")]),
            Some(200)
        );
        assert_eq!(snap.value("parj_result_rows_total", &[]), Some(42));
        assert_eq!(
            snap.value("parj_searches_total", &[("kind", "sequential")]),
            Some(5)
        );
    }

    #[test]
    fn cache_events_feed_families() {
        let m = EngineMetrics::new();
        m.record_cache_lookup(CacheKind::Plan, false);
        m.record_cache_lookup(CacheKind::Plan, true);
        m.record_cache_lookup(CacheKind::Result, true);
        m.record_cache_evictions(CacheKind::Result, 3);
        m.set_cache_resident(CacheKind::Result, 4096);
        m.record_cache_time_saved(QueryPhase::Execute, 500);
        m.record_cache_time_saved(QueryPhase::Optimize, 40);
        let snap = m.snapshot();
        assert_eq!(
            snap.value("parj_cache_hits_total", &[("cache", "plan")]),
            Some(1)
        );
        assert_eq!(
            snap.value("parj_cache_hits_total", &[("cache", "result")]),
            Some(1)
        );
        assert_eq!(
            snap.value("parj_cache_misses_total", &[("cache", "plan")]),
            Some(1)
        );
        assert_eq!(
            snap.value("parj_cache_evictions_total", &[("cache", "result")]),
            Some(3)
        );
        assert_eq!(
            snap.value("parj_cache_resident_bytes", &[("cache", "result")]),
            Some(4096)
        );
        assert_eq!(
            snap.value(
                "parj_cache_time_saved_micros_total",
                &[("phase", "execute")]
            ),
            Some(500)
        );
        assert_eq!(
            snap.value(
                "parj_cache_time_saved_micros_total",
                &[("phase", "cache_lookup")]
            ),
            Some(0)
        );
    }

    #[test]
    fn plan_exec_and_pool_feed_families() {
        let m = EngineMetrics::new();
        m.record_plan_exec(100, 1250, 7);
        m.record_plan_exec(50, 1000, 3);
        m.publish_pool(&PoolTotals {
            workers: 4,
            jobs: 9,
            helper_joins: 20,
            busy_micros: 1234,
            park_micros: 5678,
            queue_depth: 1,
            panics_contained: 2,
        });
        let snap = m.snapshot();
        assert_eq!(snap.value("parj_probe_rows_total", &[]), Some(150));
        assert_eq!(snap.value("parj_exec_morsels_total", &[]), Some(10));
        assert_eq!(snap.value("parj_pool_workers", &[]), Some(4));
        assert_eq!(snap.value("parj_pool_jobs_total", &[]), Some(9));
        assert_eq!(snap.value("parj_pool_helper_joins_total", &[]), Some(20));
        assert_eq!(snap.value("parj_pool_busy_micros_total", &[]), Some(1234));
        assert_eq!(snap.value("parj_pool_park_micros_total", &[]), Some(5678));
        assert_eq!(snap.value("parj_pool_queue_depth", &[]), Some(1));
        assert_eq!(snap.value("parj_pool_panics_contained_total", &[]), Some(2));
        // Re-publishing replaces (the pool's totals are authoritative).
        m.publish_pool(&PoolTotals {
            workers: 4,
            jobs: 11,
            ..PoolTotals::default()
        });
        let snap = m.snapshot();
        assert_eq!(snap.value("parj_pool_jobs_total", &[]), Some(11));
    }

    #[test]
    fn delta_and_invalidation_events_feed_families() {
        let m = EngineMetrics::new();
        m.set_delta_resident(120, 4096);
        m.record_compaction(2, 350);
        m.record_compaction(1, 150);
        m.record_cache_invalidations(3);
        let snap = m.snapshot();
        assert_eq!(snap.value("parj_delta_resident_triples", &[]), Some(120));
        assert_eq!(snap.value("parj_delta_resident_bytes", &[]), Some(4096));
        assert_eq!(snap.value("parj_delta_compactions_total", &[]), Some(3));
        assert_eq!(snap.value("parj_delta_compaction_micros", &[]), Some(500));
        assert_eq!(snap.value("parj_cache_invalidations_total", &[]), Some(3));
        // Residency gauges replace; counters accumulate.
        m.set_delta_resident(0, 0);
        let snap = m.snapshot();
        assert_eq!(snap.value("parj_delta_resident_triples", &[]), Some(0));
        assert_eq!(snap.value("parj_delta_compactions_total", &[]), Some(3));
        // Pinned exposition: every delta family renders by name.
        let prom = snap.to_prometheus();
        for fam in [
            "parj_delta_resident_triples",
            "parj_delta_resident_bytes",
            "parj_delta_compactions_total",
            "parj_delta_compaction_micros",
            "parj_cache_invalidations_total",
        ] {
            assert!(prom.contains(fam), "{fam} missing from exposition:\n{prom}");
        }
    }

    #[test]
    fn store_memory_replaces_predicate_labels() {
        let m = EngineMetrics::new();
        m.set_store_memory(10, 800, [("p1".to_string(), 500)], 300, 40);
        m.set_store_memory(12, 900, [("p2".to_string(), 600)], 310, 41);
        let snap = m.snapshot();
        assert_eq!(
            snap.value("parj_store_replica_bytes", &[("predicate", "p1")]),
            None
        );
        assert_eq!(
            snap.value("parj_store_replica_bytes", &[("predicate", "p2")]),
            Some(600)
        );
        assert_eq!(snap.value("parj_store_triples", &[]), Some(12));
    }
}
