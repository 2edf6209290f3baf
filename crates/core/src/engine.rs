//! The PARJ engine: configuration, lifecycle, and query execution.

use std::path::Path;
use std::time::{Duration, Instant};

use parj_sync::Arc;

use parj_dict::{DictView, Id};
use parj_join::{
    calibrate, execute, CalibrationConfig, CalibrationResult, CancelToken, CollectSink, CountSink,
    ExecFailure, ExecFailureKind, ExecOptions, ExecSource, PhysicalPlan, ProbeStrategy, QueryGuard,
    RowBatch, SearchStats, ThresholdTable, WorkerPool, DEFAULT_MORSEL_SIZE,
};
use parj_cache::{CachedResult, PlanEntry, QueryCache, ResultEntry};
use parj_obs::{CacheKind, EngineMetrics, MetricsSnapshot, QueryOutcomeClass, QueryPhase, SearchTotals};
use parj_optimizer::{optimize, Stats};
use parj_rio::{LoadReport, NTriplesParser, OnParseError};
use parj_sparql::parse_query;
use parj_store::{DeltaOverlay, StoreBuilder, StoreOptions, TripleStore};

use crate::error::ParjError;
use crate::fingerprint::{canonicalize_query, query_fingerprint};
use crate::hierarchy::Hierarchy;
use crate::request::{QueryOutcome, RunSpec};
use crate::result::{Answer, CacheStatus, PhaseTimings, QueryRunStats};
use crate::translate::{translate, Translation};

/// Engine configuration (fixed at build; per-query aspects can be
/// overridden with [`RunOverrides`]).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads per query, and the engine's parallelism ceiling:
    /// the engine owns a pool of `threads − 1` workers that join the
    /// submitting thread, so a request can lower the count for its run
    /// ([`RunOverrides::threads`]) but never seat more participants
    /// than this. The paper's optimum was 2× physical cores
    /// (hyper-threading); default: `available_parallelism`.
    pub threads: usize,
    /// Worker threads for bulk loads (chunked parsing + sharded
    /// dictionary encode + pair routing). The loaded dictionary and
    /// store are byte-identical at any value; default:
    /// `available_parallelism`.
    pub load_threads: usize,
    /// Driver keys per morsel (load-balancing granularity): workers
    /// pull fixed-size morsels of the driver domain off a shared
    /// cursor. Smaller morsels smooth skew at slightly higher cursor
    /// traffic. Default: [`DEFAULT_MORSEL_SIZE`].
    pub morsel_size: usize,
    /// Own a persistent [`WorkerPool`] whose workers join multi-morsel
    /// queries. `false`: the engine owns no pool and every query runs
    /// on the calling thread, whatever `threads` says. Results are
    /// identical either way. Default: `true`.
    pub use_pool: bool,
    /// Probe strategy; PARJ's default is the adaptive binary/sequential
    /// switch of Algorithm 1.
    pub strategy: ProbeStrategy,
    /// Store build options (ID-to-Position index on/off + interval).
    pub store: StoreOptions,
    /// Run Algorithm 2's timed calibration at finalize. When `false`
    /// the paper's published windows (200 binary / 20 index) are used —
    /// deterministic and good on commodity hardware.
    pub calibrate: bool,
    /// Calibration tuning (used when `calibrate` is true).
    pub calibration: CalibrationConfig,
    /// Equi-depth histogram buckets per column.
    pub histogram_buckets: usize,
    /// Answer queries with respect to RDFS class/property hierarchies
    /// found in the data (`rdfs:subClassOf` / `rdfs:subPropertyOf`), by
    /// unioning partitions during the pipelined execution — the paper's
    /// §6 extension. Results are deduplicated to entailment semantics.
    pub reasoning: bool,
    /// Wall-clock deadline applied to every query (measured from the
    /// start of the run, covering prepare + execution). `None` means
    /// unlimited. Per-run [`RunOverrides::timeout`] wins when set.
    pub timeout: Option<Duration>,
    /// Result-row budget applied to every query: the join aborts with
    /// [`crate::ParjError::BudgetExceeded`] once it has *produced* more
    /// rows than this (counted before `LIMIT`/`OFFSET` trimming, with a
    /// bounded overshoot of up to `threads × GUARD_BATCH`). `None`
    /// means unlimited. Per-run [`RunOverrides::max_rows`] wins.
    pub max_result_rows: Option<u64>,
    /// Feed the engine's [`EngineMetrics`] registry from query runs,
    /// loads and store rebuilds. When `false` the executor carries no
    /// recorder and the hot path is untouched. Default: `true` (the
    /// registry is lock-light — atomic counters only).
    pub record_metrics: bool,
    /// Serve repeated queries from the plan/result cache. Entries are
    /// stamped with the store generation and never served after a
    /// reload, so cached answers are always identical to cold runs.
    /// Default: `false` — with caching off the request path is
    /// byte-for-byte the uncached one.
    pub cache: bool,
    /// Byte budget for cached results (the plan tier gets a small
    /// fixed slice on top). Evicted sharded-LRU when exceeded.
    /// Default: 64 MiB.
    pub cache_bytes: usize,
    /// Resident delta pairs per predicate above which a mutation batch
    /// compacts that predicate's add/delete runs into a replacement
    /// CSR partition (probes on it go back to the clean fast path).
    /// `0` disables automatic compaction — the delta only folds into
    /// the base store at the next full rebuild. Default: 4096.
    pub delta_compaction_threshold: usize,
    /// Block-compress replica value runs (frame-of-reference +
    /// bitpacked deltas, [`parj_store::codec`]) when a replica holds at
    /// least [`EngineConfig::compress_min_values`] triples and the
    /// packed form is smaller than raw. Query results are byte-identical
    /// either way; this trades a small decode cost on probe for a much
    /// smaller resident store. Default: `true`.
    pub compress_replicas: bool,
    /// Size threshold for [`EngineConfig::compress_replicas`]: replicas
    /// below this many values always stay raw (too small for the saving to
    /// matter). Default: 4096.
    pub compress_min_values: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: parj_sync::thread::available_parallelism().map_or(1, |n| n.get()),
            load_threads: parj_sync::thread::available_parallelism().map_or(1, |n| n.get()),
            morsel_size: DEFAULT_MORSEL_SIZE,
            use_pool: true,
            strategy: ProbeStrategy::AdaptiveBinary,
            store: StoreOptions::default(),
            calibrate: false,
            calibration: CalibrationConfig::default(),
            histogram_buckets: 64,
            reasoning: false,
            timeout: None,
            max_result_rows: None,
            record_metrics: true,
            cache: false,
            cache_bytes: 64 << 20,
            delta_compaction_threshold: 4096,
            compress_replicas: true,
            compress_min_values: 4096,
        }
    }
}

impl EngineConfig {
    /// The [`StoreOptions`] actually used to build stores: the
    /// configured options with the replica-compression policy folded
    /// in, so partition builds, delta compactions and snapshot reloads
    /// all apply the same policy.
    pub fn effective_store_options(&self) -> StoreOptions {
        StoreOptions {
            compress_min_values: self
                .compress_replicas
                .then_some(self.compress_min_values),
            ..self.store
        }
    }
}

/// Builder for [`Parj`].
#[derive(Debug, Default, Clone)]
pub struct ParjBuilder {
    config: EngineConfig,
}

impl ParjBuilder {
    /// Worker threads per query.
    pub fn threads(mut self, n: usize) -> Self {
        self.config.threads = n.max(1);
        self
    }

    /// Worker threads for bulk loads. Results are byte-identical at
    /// any value — this tunes speed only.
    pub fn load_threads(mut self, n: usize) -> Self {
        self.config.load_threads = n.max(1);
        self
    }

    /// Driver keys per morsel (see [`EngineConfig::morsel_size`]).
    pub fn morsel_size(mut self, n: usize) -> Self {
        self.config.morsel_size = n.max(1);
        self
    }

    /// Probe strategy.
    pub fn strategy(mut self, s: ProbeStrategy) -> Self {
        self.config.strategy = s;
        self
    }

    /// Build ID-to-Position indexes (§4.2). Default: on.
    pub fn build_idpos(mut self, on: bool) -> Self {
        self.config.store.build_idpos = on;
        self
    }

    /// ID-to-Position block interval (multiple of 64).
    pub fn idpos_interval(mut self, interval: usize) -> Self {
        self.config.store.idpos_interval = interval;
        self
    }

    /// Run the timed calibration of Algorithm 2 at finalize.
    pub fn calibrate(mut self, on: bool) -> Self {
        self.config.calibrate = on;
        self
    }

    /// Calibration tuning.
    pub fn calibration_config(mut self, cfg: CalibrationConfig) -> Self {
        self.config.calibration = cfg;
        self
    }

    /// Histogram resolution.
    pub fn histogram_buckets(mut self, buckets: usize) -> Self {
        self.config.histogram_buckets = buckets.max(1);
        self
    }

    /// Wall-clock deadline for every query run by this engine.
    pub fn timeout(mut self, limit: Duration) -> Self {
        self.config.timeout = Some(limit);
        self
    }

    /// Result-row budget for every query run by this engine (rows
    /// produced by the join, pre-`LIMIT`).
    pub fn max_result_rows(mut self, rows: u64) -> Self {
        self.config.max_result_rows = Some(rows);
        self
    }

    /// Feed the engine's metrics registry (on by default; see
    /// [`EngineConfig::record_metrics`]).
    pub fn record_metrics(mut self, on: bool) -> Self {
        self.config.record_metrics = on;
        self
    }

    /// Serve repeated queries from the plan/result cache (off by
    /// default; see [`EngineConfig::cache`]).
    pub fn cache(mut self, on: bool) -> Self {
        self.config.cache = on;
        self
    }

    /// Byte budget for cached results (see
    /// [`EngineConfig::cache_bytes`]).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.config.cache_bytes = bytes;
        self
    }

    /// Per-predicate delta size that triggers compaction during a
    /// mutation batch (see
    /// [`EngineConfig::delta_compaction_threshold`]; `0` disables).
    pub fn delta_compaction_threshold(mut self, pairs: usize) -> Self {
        self.config.delta_compaction_threshold = pairs;
        self
    }

    /// Block-compress large replica value runs (see
    /// [`EngineConfig::compress_replicas`]). On by default.
    pub fn compress_replicas(mut self, on: bool) -> Self {
        self.config.compress_replicas = on;
        self
    }

    /// Replica size threshold for compression (see
    /// [`EngineConfig::compress_min_values`]).
    pub fn compress_min_values(mut self, values: usize) -> Self {
        self.config.compress_min_values = values.max(1);
        self
    }

    /// Enable RDFS class/property hierarchy answering (§6 of the paper):
    /// `rdf:type`/property patterns expand into unions over
    /// sub-classes/-properties declared in the data, with solutions
    /// deduplicated to entailment semantics. No materialization happens.
    pub fn rdfs_reasoning(mut self, on: bool) -> Self {
        self.config.reasoning = on;
        self
    }

    /// Builds an empty engine.
    pub fn build(self) -> Parj {
        Parj {
            cache: Arc::new(QueryCache::new(self.config.cache_bytes)),
            pool: Parj::make_pool(&self.config),
            config: self.config,
            staged: Some(StoreBuilder::new()),
            ready: None,
            metrics: Arc::new(EngineMetrics::new()),
        }
    }
}

/// Per-query overrides of engine configuration — used by the benchmark
/// harness to sweep threads and strategies without reloading data, and
/// by callers to attach per-run lifecycle limits (deadline, row budget,
/// cancellation token).
#[derive(Debug, Default, Clone)]
pub struct RunOverrides {
    /// Override worker threads. [`EngineConfig::threads`] is the
    /// ceiling: a larger value seats no extra participants.
    pub threads: Option<usize>,
    /// Override the driver morsel size (load-balancing granularity).
    pub morsel_size: Option<usize>,
    /// Override probe strategy.
    pub strategy: Option<ProbeStrategy>,
    /// Wall-clock deadline for this run (wins over
    /// [`EngineConfig::timeout`]).
    pub timeout: Option<Duration>,
    /// Result-row budget for this run (wins over
    /// [`EngineConfig::max_result_rows`]).
    pub max_rows: Option<u64>,
    /// Cancellation token polled by the workers of this run; trip it
    /// from any thread to stop the query.
    pub cancel: Option<CancelToken>,
}

impl RunOverrides {
    /// Override only the thread count.
    pub fn threads(n: usize) -> Self {
        Self::default().with_threads(n)
    }

    /// Override only the strategy.
    pub fn strategy(s: ProbeStrategy) -> Self {
        Self::default().with_strategy(s)
    }

    /// Override only the deadline.
    pub fn timeout(limit: Duration) -> Self {
        Self::default().with_timeout(limit)
    }

    /// Override only the row budget.
    pub fn max_rows(rows: u64) -> Self {
        Self::default().with_max_rows(rows)
    }

    /// Sets the thread count (chainable).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Sets the probe strategy (chainable).
    pub fn with_strategy(mut self, s: ProbeStrategy) -> Self {
        self.strategy = Some(s);
        self
    }

    /// Sets the driver morsel size (chainable).
    pub fn with_morsel_size(mut self, n: usize) -> Self {
        self.morsel_size = Some(n);
        self
    }

    /// Sets the wall-clock deadline (chainable).
    pub fn with_timeout(mut self, limit: Duration) -> Self {
        self.timeout = Some(limit);
        self
    }

    /// Sets the result-row budget (chainable).
    pub fn with_max_rows(mut self, rows: u64) -> Self {
        self.max_rows = Some(rows);
        self
    }

    /// Attaches a cancellation token (chainable).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Prepared query: translation metadata + one plan per pattern set
/// (`None` when a constant is absent and the result is trivially empty).
type Prepared = Option<(crate::translate::TranslatedQuery, Vec<PhysicalPlan>)>;

/// Finalized query-ready state. Store, delta and thresholds live
/// behind `Arc`s so multi-morsel runs can hand `'static` clones to the
/// pool's workers; inline runs only borrow them.
struct Ready {
    store: Arc<TripleStore>,
    /// Pending mutations since the last full rebuild: per-predicate
    /// sorted add/delete runs plus a dictionary extension, consulted by
    /// probes alongside the CSR replicas. Clean (empty) on every
    /// finalize; mutated via `Arc::make_mut` under `&mut Parj` (or the
    /// [`crate::SharedParj`] write lock), cheaply cloned into pooled
    /// execution jobs.
    delta: Arc<DeltaOverlay>,
    stats: Stats,
    thresholds: Arc<ThresholdTable>,
    calibration: CalibrationResult,
    hierarchy: Option<Hierarchy>,
}

impl Ready {
    /// Fresh ready state around a just-built store (clean delta).
    fn new(
        store: TripleStore,
        stats: Stats,
        thresholds: ThresholdTable,
        calibration: CalibrationResult,
        hierarchy: Option<Hierarchy>,
    ) -> Self {
        let store = Arc::new(store);
        let delta = Arc::new(DeltaOverlay::new(&store));
        Ready { store, delta, stats, thresholds: Arc::new(thresholds), calibration, hierarchy }
    }

    /// The dictionary lookup/decode surface: base plus delta terms.
    fn dict_view(&self) -> DictView<'_> {
        DictView::with_delta(self.store.dict(), self.delta.dict())
    }

    /// What the executor probes: the delta is threaded in only when
    /// dirty (the clean path is byte-for-byte the pre-delta executor).
    fn exec_source(&self) -> ExecSource<'_> {
        ExecSource {
            store: &self.store,
            delta: (!self.delta.is_clean()).then_some(&self.delta),
            thresholds: &self.thresholds,
        }
    }

    /// Triples visible to queries (base adjusted by the delta).
    fn visible_triples(&self) -> usize {
        self.delta.visible_triples(&self.store)
    }
}

/// The PARJ engine. See the crate docs for the lifecycle.
pub struct Parj {
    config: EngineConfig,
    staged: Option<StoreBuilder>,
    ready: Option<Ready>,
    metrics: Arc<EngineMetrics>,
    /// Plan/result cache. Always present (cheap when unused); probed
    /// only when [`EngineConfig::cache`] is on. Its store generation is
    /// bumped by every [`Parj::finalize`] that rebuilds the store, which
    /// invalidates all earlier entries without touching them.
    cache: Arc<QueryCache>,
    /// Persistent worker pool for morsel dispatch, created once per
    /// engine when [`EngineConfig::use_pool`] is on and more than one
    /// thread is configured. Workers park between queries and are
    /// joined when the engine drops.
    pool: Option<WorkerPool>,
}

impl Parj {
    /// Starts building an engine.
    pub fn builder() -> ParjBuilder {
        ParjBuilder::default()
    }

    /// Engine with all-default configuration.
    pub fn new() -> Parj {
        Self::builder().build()
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Parses and loads N-Triples text; returns the number of statements
    /// read. Strict mode: the first malformed line aborts the load (see
    /// [`Parj::load_ntriples_str_with`] for lossy loading). Runs the
    /// parallel load pipeline on [`EngineConfig::load_threads`] workers;
    /// the result is identical at any thread count.
    pub fn load_ntriples_str(&mut self, text: &str) -> Result<usize, ParjError> {
        self.load_ntriples_str_with(text, OnParseError::Abort)
            .map(|r| r.loaded)
    }

    /// [`Parj::load_ntriples_str`] under an error policy: with
    /// [`OnParseError::Skip`], malformed lines are dropped (bounded by
    /// `max_errors`) and the returned [`LoadReport`] records their
    /// positioned diagnostics. Lines parsed before an abort remain
    /// staged, exactly as in the serial reader path.
    pub fn load_ntriples_str_with(
        &mut self,
        text: &str,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        self.unfinalize();
        let t0 = Instant::now();
        let staged = self.staged.as_mut().expect("unfinalize staged a builder");
        let report =
            crate::loader::load_ntriples_text(staged, text, on_error, self.config.load_threads)?;
        self.record_load(&report, t0, text.len());
        Ok(report)
    }

    /// Loads an N-Triples file (strict mode) through the parallel load
    /// pipeline (the file is read into memory; use
    /// [`Parj::load_ntriples_reader`] to stream serially instead).
    pub fn load_ntriples_path(&mut self, path: impl AsRef<Path>) -> Result<usize, ParjError> {
        let text = std::fs::read_to_string(path)?;
        self.load_ntriples_str(&text)
    }

    /// Loads an N-Triples file under an error policy.
    pub fn load_ntriples_path_with(
        &mut self,
        path: impl AsRef<Path>,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        let text = std::fs::read_to_string(path)?;
        self.load_ntriples_str_with(&text, on_error)
    }

    /// Parses and loads Turtle text; returns the number of triples
    /// read (strict mode).
    pub fn load_turtle_str(&mut self, text: &str) -> Result<usize, ParjError> {
        self.load_turtle_str_with(text, OnParseError::Abort)
            .map(|r| r.loaded)
    }

    /// [`Parj::load_turtle_str`] under an error policy: with
    /// [`OnParseError::Skip`], malformed statements are dropped whole
    /// and recorded in the returned [`LoadReport`].
    pub fn load_turtle_str_with(
        &mut self,
        text: &str,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        let t0 = Instant::now();
        let (parts, report) =
            crate::loader::parse_turtle_text(text, on_error, self.config.load_threads)?;
        self.unfinalize();
        let staged = self.staged.as_mut().expect("unfinalize staged a builder");
        staged.add_triples_parallel(parts, self.config.load_threads);
        self.record_load(&report, t0, text.len());
        Ok(report)
    }

    /// Loads a Turtle file (strict mode).
    pub fn load_turtle_path(&mut self, path: impl AsRef<Path>) -> Result<usize, ParjError> {
        let text = std::fs::read_to_string(path)?;
        self.load_turtle_str(&text)
    }

    /// Loads a Turtle file under an error policy.
    pub fn load_turtle_path_with(
        &mut self,
        path: impl AsRef<Path>,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        let text = std::fs::read_to_string(path)?;
        self.load_turtle_str_with(&text, on_error)
    }

    /// Loads N-Triples from any buffered reader (strict mode). Streams
    /// serially; prefer the `str`/`path` variants for large inputs —
    /// they run the parallel load pipeline.
    pub fn load_ntriples_reader<R: std::io::BufRead>(
        &mut self,
        reader: R,
    ) -> Result<usize, ParjError> {
        self.load_ntriples_reader_with(reader, OnParseError::Abort)
            .map(|r| r.loaded)
    }

    /// Loads N-Triples from any buffered reader under an error policy.
    /// Lines parsed before an abort remain staged (both modes); in skip
    /// mode the load only aborts when `max_errors` is exceeded or on an
    /// I/O error.
    pub fn load_ntriples_reader_with<R: std::io::BufRead>(
        &mut self,
        reader: R,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        self.unfinalize();
        let t0 = Instant::now();
        let staged = self.staged.as_mut().expect("unfinalize staged a builder");
        let report = parj_rio::drain_triples(NTriplesParser::new(reader), on_error, |(s, p, o)| {
            staged.add_term_triple(&s, &p, &o);
        })?;
        // Input size is unknown for a streaming reader; only the
        // statement counters advance.
        self.record_load(&report, t0, 0);
        Ok(report)
    }

    /// Feeds one successful load into the metrics registry.
    fn record_load(&self, report: &LoadReport, started: Instant, bytes: usize) {
        if !self.config.record_metrics {
            return;
        }
        self.metrics.record_load(
            report.loaded as u64,
            report.skipped as u64,
            started.elapsed().as_micros() as u64,
            bytes as u64,
        );
    }

    /// Builds partitions, statistics and thresholds from the staged
    /// triples. Idempotent; called implicitly by the query methods.
    pub fn finalize(&mut self) {
        let Some(staged) = self.staged.take() else {
            return;
        };
        let store = staged.build_with(self.config.effective_store_options());
        let stats = Stats::build_with_buckets(&store, self.config.histogram_buckets);
        let calibration = if self.config.calibrate {
            calibrate(&store, &self.config.calibration)
        } else {
            CalibrationResult::paper_defaults()
        };
        let thresholds = ThresholdTable::from_calibration(&store, &calibration);
        let hierarchy = self.config.reasoning.then(|| Hierarchy::extract(&store));
        self.ready = Some(Ready::new(store, stats, thresholds, calibration, hierarchy));
        // The store was rebuilt (idempotent finalizes return above):
        // advance the cache generation so every entry stamped before
        // this point is stale and can never be served again.
        self.cache.bump_generation();
        self.publish_store_gauges();
        // A rebuild folds (or predates) any delta: zero its gauges.
        self.publish_delta_gauges();
    }

    /// Refreshes the memory-footprint gauges from the finalized store
    /// (store size, per-predicate replica bytes, dictionary sections).
    fn publish_store_gauges(&self) {
        if !self.config.record_metrics {
            return;
        }
        let Some(ready) = self.ready.as_ref() else {
            return;
        };
        let store = &ready.store;
        let dict = store.dict();
        let per_predicate = store.partitions().iter().map(|p| {
            let label = dict
                .decode_predicate(p.predicate())
                .map_or_else(|_| format!("#{}", p.predicate()), |t| t.to_string());
            (label, p.memory_bytes() as u64)
        });
        self.metrics.set_store_memory(
            store.num_triples() as u64,
            store.partitions_memory_bytes() as u64,
            per_predicate,
            dict.resources_memory_bytes() as u64,
            dict.predicates_memory_bytes() as u64,
        );
    }

    /// The engine's metrics registry. It is owned by the engine, lives
    /// for its whole lifetime, and accumulates across queries; clone
    /// the `Arc` to scrape from another thread.
    pub fn metrics(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.metrics)
    }

    /// A point-in-time snapshot of every metric family, ready for
    /// Prometheus-text ([`MetricsSnapshot::to_prometheus`]) or JSON
    /// ([`MetricsSnapshot::to_json`]) exposition. Pool counters are
    /// refreshed from the live [`WorkerPool`] first, so scrapes see
    /// current busy/park/queue figures.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if let (Some(pool), true) = (&self.pool, self.config.record_metrics) {
            let s = pool.stats();
            self.metrics.publish_pool(&parj_obs::PoolTotals {
                workers: s.workers,
                jobs: s.jobs,
                helper_joins: s.helper_joins,
                busy_micros: s.busy_micros,
                park_micros: s.park_micros,
                queue_depth: s.queue_depth,
                panics_contained: s.panics_contained,
            });
        }
        if self.config.record_metrics {
            // Per-level lock contention (process-global: parj-sync owns
            // the counters, a snapshot publishes the latest view).
            let totals = parj_sync::lock_wait_totals();
            self.metrics
                .publish_lock_waits(totals.iter().map(|&(level, v)| (level, v)));
        }
        self.metrics.snapshot()
    }

    /// True once finalized (and not re-opened by later loads).
    pub fn is_finalized(&self) -> bool {
        self.staged.is_none() && self.ready.is_some()
    }

    /// Moves a finalized store back into staging for further loads,
    /// folding any pending mutation delta in: the staged dictionary is
    /// the base plus the delta's new terms (re-encoded in insertion
    /// order, which reproduces identical dense ids), and the staged
    /// triples are the merged visible view (base minus tombstones plus
    /// inserts). A rebuild from this staging is therefore byte-identical
    /// to the store the delta-overlaid probes answered from.
    fn unfinalize(&mut self) {
        if self.staged.is_some() {
            return;
        }
        let ready = self.ready.take().expect("either staged or ready");
        let mut builder = StoreBuilder::new();
        let mut dict = ready.store.dict().clone();
        ready.delta.dict().fold_into(&mut dict);
        *builder.dict_mut() = dict;
        if ready.delta.is_clean() {
            for t in ready.store.iter_triples() {
                builder.add_encoded(t);
            }
        } else {
            for t in ready.delta.iter_merged_triples(&ready.store) {
                builder.add_encoded(t);
            }
        }
        self.staged = Some(builder);
    }

    /// Folds a non-clean mutation delta into a full store rebuild
    /// (stats, thresholds, hierarchy and cache generation included).
    /// No-op when the delta is clean or the engine is staged.
    fn fold_delta(&mut self) {
        if self.ready.as_ref().is_some_and(|r| !r.delta.is_clean()) {
            self.unfinalize();
            self.finalize();
        }
    }

    fn ensure_ready(&mut self) -> &Ready {
        self.finalize();
        self.ready.as_ref().expect("finalize sets ready")
    }

    /// The underlying store (finalizing first if needed).
    pub fn store(&mut self) -> &TripleStore {
        &self.ensure_ready().store
    }

    /// Optimizer statistics.
    pub fn stats(&mut self) -> &Stats {
        &self.ensure_ready().stats
    }

    /// The calibration result in effect.
    pub fn calibration(&mut self) -> CalibrationResult {
        self.ensure_ready().calibration
    }

    /// Total triples visible to queries (the finalized base adjusted by
    /// any pending mutation delta).
    pub fn num_triples(&mut self) -> usize {
        self.ensure_ready().visible_triples()
    }

    /// Total triples visible in the finalized store, without finalizing.
    ///
    /// `&self` so observers (readiness probes, stat pages) can read it
    /// under a shared lock while queries run. Counts the finalized
    /// store adjusted by any pending mutation delta — staged,
    /// un-finalized triples are not included; check
    /// [`Parj::is_finalized`] first if that distinction matters.
    pub fn num_triples_ref(&self) -> usize {
        self.ready.as_ref().map_or(0, Ready::visible_triples)
    }

    /// Runs the deep structural audit over the finalized store:
    /// CSR/index invariants, replica-pair multiset equality, dictionary
    /// bijectivity, and snapshot round-trip stability
    /// ([`parj_audit::audit_all`]). Finalizes first if needed.
    ///
    /// Loading already performs the linear structural checks; this adds
    /// the `O(n log n)` cross-structure checks that loads skip.
    pub fn audit(&mut self) -> parj_audit::AuditReport {
        let ready = self.ensure_ready();
        let mut report = parj_audit::audit_all(&ready.store);
        if !ready.delta.is_clean() {
            report.merge(parj_audit::audit_delta(&ready.store, &ready.delta));
        }
        report
    }

    /// Like [`Parj::audit`], but folds a dirty report into
    /// [`ParjError::CorruptStore`] for `?`-style propagation.
    pub fn audit_strict(&mut self) -> Result<(), ParjError> {
        let report = self.audit();
        if report.is_clean() {
            Ok(())
        } else {
            Err(ParjError::CorruptStore { report })
        }
    }

    /// Borrows the finalized state or reports [`ParjError::NotFinalized`].
    fn ready_or_err(&self) -> Result<&Ready, ParjError> {
        if self.staged.is_some() {
            return Err(ParjError::NotFinalized);
        }
        self.ready.as_ref().ok_or(ParjError::NotFinalized)
    }

    /// Builds executor options for one query run through the validating
    /// [`ExecOptions::builder`] — an override of zero threads is
    /// rejected as [`ParjError::InvalidOptions`] instead of being
    /// silently clamped. When any lifecycle limit is in effect
    /// (deadline, row budget, cancel token) a single [`QueryGuard`] is
    /// armed here and shared by every plan of the run — union branches
    /// draw down one budget and one deadline clock.
    fn exec_options(
        config: &EngineConfig,
        over: &RunOverrides,
        recorder: Option<Arc<dyn parj_join::Recorder>>,
    ) -> Result<ExecOptions, ParjError> {
        let timeout = over.timeout.or(config.timeout);
        let max_rows = over.max_rows.or(config.max_result_rows);
        let guard = if timeout.is_some() || max_rows.is_some() || over.cancel.is_some() {
            let token = over.cancel.clone().unwrap_or_default();
            Some(Arc::new(QueryGuard::new(timeout, max_rows, token)))
        } else {
            None
        };
        ExecOptions::builder()
            .threads(over.threads.unwrap_or(config.threads))
            .morsel_size(over.morsel_size.unwrap_or(config.morsel_size))
            .strategy(over.strategy.unwrap_or(config.strategy))
            .guard(guard)
            .recorder(recorder)
            .build()
            .map_err(|e| ParjError::InvalidOptions(e.to_string()))
    }

    /// The executed plan(s) as text, one block per union expansion.
    fn plan_text(plans: &[PhysicalPlan]) -> String {
        plans
            .iter()
            .map(PhysicalPlan::explain)
            .collect::<Vec<_>>()
            .join("\n---\n")
    }

    /// Runs every plan of one request through the executor — the one
    /// dispatch point of the engine. Each plan's morsel-ordered sinks
    /// go to `consume` as soon as that plan finishes; a failure stops
    /// the run and carries the partial progress made so far. Returns
    /// the merged search counters and the execution wall time.
    fn run_plans<S>(
        &self,
        ready: &Ready,
        plans: &[PhysicalPlan],
        opts: &ExecOptions,
        phases: PhaseTimings,
        factory: fn() -> S,
        mut consume: impl FnMut(usize, Vec<S>),
    ) -> Result<(SearchStats, u64), ParjError>
    where
        S: parj_join::Sink + Send + 'static,
    {
        let started = Instant::now();
        let mut search = SearchStats::default();
        for (idx, plan) in plans.iter().enumerate() {
            match execute(ready.exec_source(), plan, opts, self.pool.as_ref(), factory) {
                Ok((sinks, s)) => {
                    search.merge(&s);
                    consume(idx, sinks);
                }
                Err(failure) => {
                    return Err(Self::failure_to_error(*failure, phases, started, search, plans));
                }
            }
        }
        Ok((search, started.elapsed().as_micros() as u64))
    }

    /// Folds an executor failure into a [`ParjError`] carrying
    /// partial-progress statistics (work done before the trip).
    fn failure_to_error(
        failure: ExecFailure,
        phases: PhaseTimings,
        exec_started: Instant,
        mut search: SearchStats,
        plans: &[PhysicalPlan],
    ) -> ParjError {
        search.merge(&failure.stats);
        let partial = Box::new(QueryRunStats {
            prepare_micros: phases.total(),
            phases,
            exec_micros: exec_started.elapsed().as_micros() as u64,
            decode_micros: 0,
            search,
            rows: failure.rows,
            plan: Self::plan_text(plans),
            cache: CacheStatus::Off,
        });
        match failure.kind {
            ExecFailureKind::Cancelled => ParjError::Cancelled { partial },
            ExecFailureKind::DeadlineExceeded { elapsed } => {
                ParjError::DeadlineExceeded { elapsed, partial }
            }
            ExecFailureKind::BudgetExceeded { rows } => ParjError::BudgetExceeded { rows, partial },
            ExecFailureKind::WorkerPanicked { message } => {
                ParjError::WorkerPanicked { message, partial }
            }
            ExecFailureKind::InvalidOptions { message } => ParjError::InvalidOptions(message),
        }
    }

    /// Parses, translates and optimizes `query` against finalized state;
    /// returns the plans (one per union expansion), translation
    /// metadata, and per-phase wall timings.
    ///
    /// `canonical` applies the cache's variable/pattern
    /// canonicalization before optimizing — passed as
    /// [`EngineConfig::cache`] by the introspection entry points so
    /// [`Parj::explain`] renders exactly the plans the cached request
    /// path executes. With caching off nothing is
    /// renumbered and the output is identical to previous releases.
    fn prepare_on(
        ready: &Ready,
        query: &str,
        canonical: bool,
    ) -> Result<(Prepared, Vec<String>, Option<usize>, PhaseTimings), ParjError> {
        let mut phases = PhaseTimings::default();
        let t = Instant::now();
        let parsed = parse_query(query)?;
        phases.parse_micros = t.elapsed().as_micros() as u64;
        let t = Instant::now();
        let translated = translate(&parsed, ready.dict_view(), ready.hierarchy.as_ref())?;
        phases.translate_micros = t.elapsed().as_micros() as u64;
        match translated {
            Translation::Empty { proj_names, limit } => Ok((None, proj_names, limit, phases)),
            Translation::Run(mut tq) => {
                if canonical {
                    canonicalize_query(&mut tq);
                }
                let t = Instant::now();
                let plans = Self::optimize_sets(ready, &tq)?;
                phases.optimize_micros = t.elapsed().as_micros() as u64;
                let names = tq.proj_names.clone();
                let limit = tq.limit;
                Ok((Some((tq, plans)), names, limit, phases))
            }
        }
    }

    /// Optimizes one physical plan per pattern set of `tq`.
    fn optimize_sets(
        ready: &Ready,
        tq: &crate::translate::TranslatedQuery,
    ) -> Result<Vec<PhysicalPlan>, ParjError> {
        // Hierarchy expansions union alternative derivations of
        // the same solutions; dedup needs the *full* binding row,
        // so plans then project every variable.
        let plan_proj: Vec<parj_join::VarId> = if tq.full_rows {
            (0..tq.num_vars as parj_join::VarId).collect()
        } else {
            tq.projection.clone()
        };
        let mut plans = Vec::with_capacity(tq.pattern_sets.len());
        for set in &tq.pattern_sets {
            plans.push(optimize(&ready.stats, set, tq.num_vars, plan_proj.clone())?);
        }
        Ok(plans)
    }

    /// Sorted, deduplicated concrete predicate ids a translated query
    /// touches — the coordinates its cache entries are stamped with for
    /// per-predicate invalidation.
    fn touched_predicates(tq: &crate::translate::TranslatedQuery) -> Vec<Id> {
        let mut preds: Vec<Id> = tq
            .pattern_sets
            .iter()
            .flat_map(|set| set.iter().map(|pat| pat.p))
            .collect();
        preds.sort_unstable();
        preds.dedup();
        preds
    }

    /// Applies one mutation batch (ordered insert/delete operations, in
    /// call order so later operations on the same triple win) against
    /// the delta overlay — the execution path behind [`Parj::mutate`].
    ///
    /// Cost is `O(batch + resident delta)` in the touched predicates
    /// only; the base store is never rebuilt. The exceptions are staged
    /// engines (staged triples finalize first — a build that was owed
    /// anyway) and reasoning engines, where the batch folds into a full
    /// rebuild so the extracted RDFS hierarchy stays consistent with
    /// the data.
    pub(crate) fn apply_mutation(
        &mut self,
        ops: &[crate::mutate::MutationOp],
    ) -> Result<crate::mutate::MutationOutcome, ParjError> {
        use crate::mutate::{MutationOutcome, MutationPhases};
        use std::collections::BTreeMap;

        // Staged triples fold into the base first so the batch lands on
        // a finalized engine.
        self.finalize();
        let mut phases = MutationPhases::default();
        let mut outcome = MutationOutcome::default();

        // -- encode: terms -> ids through the delta dictionary --------
        // Per predicate, per (s, o) pair: the last operation in batch
        // order wins (`true` = insert). BTreeMaps keep predicate and
        // pair iteration sorted, which `apply_pred` requires.
        let t = Instant::now();
        let ready = self.ready.as_mut().expect("finalize sets ready");
        let base = Arc::clone(&ready.store);
        let delta = Arc::make_mut(&mut ready.delta);
        let mut by_pred: BTreeMap<Id, BTreeMap<(Id, Id), bool>> = BTreeMap::new();
        for op in ops {
            match op {
                crate::mutate::MutationOp::Insert(s, p, o) => {
                    let dict = delta.dict_mut();
                    let sid = dict.encode_resource(base.dict(), s);
                    let pid = dict.encode_predicate(base.dict(), p);
                    let oid = dict.encode_resource(base.dict(), o);
                    by_pred.entry(pid).or_default().insert((sid, oid), true);
                }
                crate::mutate::MutationOp::Delete(s, p, o) => {
                    // Non-inserting resolve: a triple with an unknown
                    // term cannot be stored, so the delete is a no-op
                    // (set semantics, like deleting an absent triple).
                    let dict = delta.dict();
                    let (Some(sid), Some(pid), Some(oid)) = (
                        dict.resource_id(base.dict(), s),
                        dict.predicate_id(base.dict(), p),
                        dict.resource_id(base.dict(), o),
                    ) else {
                        continue;
                    };
                    by_pred.entry(pid).or_default().insert((sid, oid), false);
                }
            }
        }
        phases.encode_micros = t.elapsed().as_micros() as u64;

        // -- apply: per-predicate sorted run merges --------------------
        let t = Instant::now();
        let mut touched: Vec<Id> = Vec::with_capacity(by_pred.len());
        for (&pid, pairs) in &by_pred {
            let inserts: Vec<(Id, Id)> =
                pairs.iter().filter(|&(_, &ins)| ins).map(|(&k, _)| k).collect();
            let deletes: Vec<(Id, Id)> =
                pairs.iter().filter(|&(_, &ins)| !ins).map(|(&k, _)| k).collect();
            let applied = delta.apply_pred(&base, pid, &inserts, &deletes);
            outcome.inserted += applied.inserted as u64;
            outcome.deleted += applied.deleted as u64;
            if applied.inserted + applied.deleted > 0 {
                touched.push(pid);
            }
        }
        outcome.predicates_touched = touched.len();
        phases.apply_micros = t.elapsed().as_micros() as u64;

        // -- compact: threshold-crossed predicates ---------------------
        let t = Instant::now();
        let threshold = self.config.delta_compaction_threshold;
        for &pid in &touched {
            if delta.needs_compaction(pid, threshold) {
                delta.compact_pred(&base, pid);
                outcome.compactions += 1;
            }
        }
        phases.compact_micros = t.elapsed().as_micros() as u64;
        outcome.delta_resident_pairs = delta.resident_pairs();
        outcome.delta_bytes = delta.memory_bytes();
        outcome.visible_triples = delta.visible_triples(&base);

        // -- invalidate: per-predicate cache epochs --------------------
        // Reasoning engines fold the batch into a full rebuild instead:
        // the extracted hierarchy must reflect any ontology triples the
        // batch changed, and `finalize` inside `fold_delta` already
        // bumps the cache generation (which invalidates everything, so
        // no per-predicate bumps are needed).
        let t = Instant::now();
        if self.config.reasoning {
            self.fold_delta();
            outcome.folded = true;
            outcome.delta_resident_pairs = 0;
            outcome.delta_bytes = 0;
        } else if !touched.is_empty() {
            outcome.cache_invalidations = self.cache.bump_predicates(&touched);
        }
        phases.invalidate_micros = t.elapsed().as_micros() as u64;
        outcome.phases = phases;

        if self.config.record_metrics {
            self.metrics.record_compaction(outcome.compactions, outcome.phases.compact_micros);
            self.metrics.record_cache_invalidations(outcome.cache_invalidations);
            self.publish_delta_gauges();
        }
        Ok(outcome)
    }

    /// Refreshes the mutation-delta residency gauges (uncompacted pairs
    /// and overlay heap bytes).
    fn publish_delta_gauges(&self) {
        if !self.config.record_metrics {
            return;
        }
        let Some(ready) = self.ready.as_ref() else {
            return;
        };
        self.metrics.set_delta_resident(
            ready.delta.resident_pairs() as u64,
            if ready.delta.is_clean() { 0 } else { ready.delta.memory_bytes() as u64 },
        );
    }

    /// Unified execution path behind [`Parj::request`]: records
    /// lifecycle metrics around the inner run regardless of how it
    /// ends.
    pub(crate) fn run_request(
        &self,
        query: &str,
        spec: &RunSpec,
    ) -> Result<QueryOutcome, ParjError> {
        let metrics = self.config.record_metrics.then_some(&*self.metrics);
        if let Some(m) = metrics {
            m.query_started();
        }
        // Decrements the in-flight gauge on every exit, panics included.
        struct Inflight<'a>(Option<&'a EngineMetrics>);
        impl Drop for Inflight<'_> {
            fn drop(&mut self) {
                if let Some(m) = self.0 {
                    m.query_finished();
                }
            }
        }
        let _inflight = Inflight(metrics);
        let t0 = Instant::now();
        let result = self.run_request_inner(query, spec);
        if let Some(m) = metrics {
            let total_micros = t0.elapsed().as_micros() as u64;
            let (class, stats) = match &result {
                Ok(out) => (QueryOutcomeClass::Ok, Some(&out.stats)),
                Err(e) => (Self::outcome_class(e), e.partial_stats()),
            };
            let empty = QueryRunStats::default();
            let stats = stats.unwrap_or(&empty);
            let phases = [
                (QueryPhase::Parse, stats.phases.parse_micros),
                (QueryPhase::Translate, stats.phases.translate_micros),
                (QueryPhase::CacheLookup, stats.phases.cache_lookup_micros),
                (QueryPhase::Optimize, stats.phases.optimize_micros),
                (QueryPhase::Execute, stats.exec_micros),
                (QueryPhase::Decode, stats.decode_micros),
            ];
            m.record_query(
                class,
                &phases,
                total_micros,
                stats.rows,
                &Self::search_totals(&stats.search),
            );
        }
        result
    }

    /// Maps a run error onto its metrics outcome class.
    fn outcome_class(e: &ParjError) -> QueryOutcomeClass {
        match e {
            ParjError::Cancelled { .. } => QueryOutcomeClass::Cancelled,
            ParjError::DeadlineExceeded { .. } => QueryOutcomeClass::Timeout,
            ParjError::BudgetExceeded { .. } => QueryOutcomeClass::Budget,
            ParjError::WorkerPanicked { .. } => QueryOutcomeClass::Panicked,
            _ => QueryOutcomeClass::Error,
        }
    }

    /// Converts merged worker counters to the registry's totals shape.
    fn search_totals(s: &SearchStats) -> SearchTotals {
        SearchTotals {
            sequential: s.sequential_searches,
            binary: s.binary_searches,
            index: s.index_lookups,
            sequential_steps: s.sequential_steps,
            binary_steps: s.binary_steps,
            index_words: s.index_words,
            group_probes: s.group_probes,
        }
    }

    fn run_request_inner(
        &self,
        query: &str,
        spec: &RunSpec,
    ) -> Result<QueryOutcome, ParjError> {
        let ready = self.ready_or_err()?;
        let over = &spec.over;
        // One recorder per run: fed by every plan's executor exit, both
        // into the metrics registry and (under `explain`) a profile
        // capture. Skipped entirely when neither consumer exists.
        let recorder = if self.config.record_metrics || spec.explain {
            Some(Arc::new(RunRecorder {
                metrics: self
                    .config
                    .record_metrics
                    .then(|| Arc::clone(&self.metrics)),
                profiles: spec.explain.then(|| {
                    parj_sync::OrderedMutex::new(
                        parj_sync::LockLevel::Profile,
                        "engine.explain_profiles",
                        Vec::new(),
                    )
                }),
            }))
        } else {
            None
        };
        let opts = Self::exec_options(
            &self.config,
            over,
            recorder
                .clone()
                .map(|r| r as Arc<dyn parj_join::Recorder>),
        )?;
        // Cache participation for this run. Deadline- and
        // cancellation-guarded runs DO participate: a guard that trips
        // aborts the run with an error before any insert, so partial
        // answers can never be cached, and serving a hit to a guarded
        // run is both correct and the fastest way to beat its deadline
        // (the serving layer attaches a cancel token to every request,
        // so this is the common case under load). Row-*budgeted* runs
        // bypass instead: a budget changes the answer itself — the same
        // query errs with `BudgetExceeded` uncached but would be served
        // its complete result from a prior unbudgeted run — so budgeted
        // runs stay out of the cache entirely to keep cache-on ≡
        // cache-off. EXPLAIN runs (which must execute for real) and
        // explicit bypasses also skip it. Reads of the store generation
        // here cannot race an update: updates require `&mut self` (or
        // the [`crate::SharedParj`] write lock), and this run holds
        // `&self` for its whole duration.
        let metrics = self.config.record_metrics.then_some(&*self.metrics);
        let budgeted = over.max_rows.or(self.config.max_result_rows).is_some();
        let use_cache = self.config.cache && !(spec.no_cache || spec.explain || budgeted);
        let mut cache_status = if self.config.cache {
            CacheStatus::Bypassed
        } else {
            CacheStatus::Off
        };
        let generation = self.cache.store_generation();

        let mut phases = PhaseTimings::default();
        let t = Instant::now();
        let parsed = parse_query(query)?;
        phases.parse_micros = t.elapsed().as_micros() as u64;
        let t = Instant::now();
        let translated = translate(&parsed, ready.dict_view(), ready.hierarchy.as_ref())?;
        phases.translate_micros = t.elapsed().as_micros() as u64;
        let mut tq = match translated {
            Translation::Run(tq) => tq,
            Translation::Empty { proj_names, limit: _ } => {
                // Trivially empty (a constant is absent from the data):
                // nothing to cache and nothing to run.
                let stats = QueryRunStats {
                    prepare_micros: phases.total(),
                    phases,
                    plan: "<empty: constant absent from data>".into(),
                    cache: cache_status,
                    ..Default::default()
                };
                let empty = CachedResult::Rows(Arc::new(RowBatch::new(proj_names.len())));
                return Ok(QueryOutcome {
                    vars: proj_names,
                    count: 0,
                    stats,
                    profile: spec
                        .explain
                        .then(|| "<empty: constant absent from data>".to_string()),
                    answer: Self::answer(ready, spec.count_only, &empty).1,
                });
            }
        };

        // Would this run take the silent count path? Its answer is a
        // bare count, so it keys a different result-entry family than
        // the materializing path.
        let silent = spec.count_only && !tq.distinct && !tq.dedup_full;
        // `Some` exactly when this run participates in the cache.
        let mut fingerprint: Option<Vec<u8>> = None;
        let mut cached_plans: Option<Arc<Vec<PhysicalPlan>>> = None;
        // Per-predicate epoch stamp: the sum of the cache's epoch
        // counters over the predicates this query touches. A mutation
        // batch bumps the epochs of exactly the predicates it changed,
        // so entries of disjoint queries keep serving while any entry
        // referencing a mutated predicate goes stale (the sum moved).
        let mut epoch_sum = 0u64;
        if use_cache {
            let t = Instant::now();
            // Canonicalization makes the fingerprint stable under
            // variable renaming and pattern reordering; it only runs
            // with caching on, keeping the cache-off path untouched.
            canonicalize_query(&mut tq);
            epoch_sum = self.cache.epoch_sum(&Self::touched_predicates(&tq));
            let fp = query_fingerprint(&tq);
            let result_key = Self::result_key(&fp, silent, tq.limit, tq.offset);
            let hit = self.cache.results().lookup(&result_key, generation, epoch_sum);
            if let Some(m) = metrics {
                m.record_cache_lookup(CacheKind::Result, hit.is_some());
            }
            if let Some(entry) = hit {
                phases.cache_lookup_micros = t.elapsed().as_micros() as u64;
                if let Some(m) = metrics {
                    m.record_cache_time_saved(QueryPhase::Execute, entry.exec_micros);
                }
                return Ok(Self::serve_cached(ready, spec.count_only, &tq, entry, phases));
            }
            let plan_hit = self.cache.plans().lookup(&fp, generation, epoch_sum);
            if let Some(m) = metrics {
                m.record_cache_lookup(CacheKind::Plan, plan_hit.is_some());
            }
            cache_status = match plan_hit {
                Some(entry) => {
                    if let Some(m) = metrics {
                        m.record_cache_time_saved(QueryPhase::Optimize, entry.optimize_micros);
                    }
                    cached_plans = Some(entry.plans);
                    CacheStatus::PlanHit
                }
                None => CacheStatus::Miss,
            };
            fingerprint = Some(fp);
            phases.cache_lookup_micros = t.elapsed().as_micros() as u64;
        }

        let plans: Arc<Vec<PhysicalPlan>> = match cached_plans {
            Some(p) => p,
            None => {
                let t = Instant::now();
                let built = Arc::new(Self::optimize_sets(ready, &tq)?);
                phases.optimize_micros = t.elapsed().as_micros() as u64;
                if let Some(fp) = &fingerprint {
                    let entry = PlanEntry {
                        plans: Arc::clone(&built),
                        optimize_micros: phases.optimize_micros,
                    };
                    let cost = entry.cost();
                    let evicted =
                        self.cache.plans().insert(fp.clone(), entry, cost, generation, epoch_sum);
                    if let Some(m) = metrics {
                        m.record_cache_evictions(CacheKind::Plan, evicted);
                        m.set_cache_resident(CacheKind::Plan, self.cache.plans().resident_bytes());
                    }
                }
                built
            }
        };
        // Execute. Silent mode (the paper's primary measurement) counts
        // without materialization; every other shape collects id rows
        // and post-processes them. Both are the representation the cache
        // keeps and the outcome carries: terms are resolved only when
        // the answer is read.
        let (value, search, exec_micros, decode_micros) = if silent {
            let mut count = 0u64;
            let (search, exec_micros) =
                self.run_plans(ready, &plans, &opts, phases, CountSink::default, |_, sinks| {
                    count += sinks.iter().map(|s| s.count).sum::<u64>();
                })?;
            // OFFSET/LIMIT arithmetic (ordering does not change a count;
            // this mirrors the materializing path's `drop_front` +
            // `truncate`, so both modes report the same count).
            count = count.saturating_sub(tq.offset.unwrap_or(0) as u64);
            if let Some(l) = tq.limit {
                count = count.min(l as u64);
            }
            (CachedResult::Count(count), search, exec_micros, 0)
        } else {
            // Full-width plans (hierarchy dedup / ORDER BY a
            // non-projected variable) carry every binding.
            let arity = if tq.full_rows {
                tq.num_vars
            } else {
                tq.projection.len()
            };
            // Rows grouped per UNION branch: hierarchy dedup must not
            // merge duplicate solutions coming from *different*
            // branches (those are legitimate SPARQL multiset results).
            // Worker sink buffers are already flat and row-aligned;
            // they are concatenated into per-branch batches wholesale,
            // never exploded per row.
            let n_branches = tq.set_branch.iter().copied().max().map_or(1, |m| m + 1);
            let mut branch_rows: Vec<RowBatch> =
                (0..n_branches).map(|_| RowBatch::new(arity)).collect();
            let (search, exec_micros) =
                self.run_plans(ready, &plans, &opts, phases, CollectSink::default, |idx, sinks| {
                    let rows = &mut branch_rows[tq.set_branch.get(idx).copied().unwrap_or(0)];
                    for sink in &sinks {
                        if arity == 0 {
                            // Zero-arity plans (`ASK`-style bodies)
                            // produce no id payload; carry the match
                            // count explicitly so offset/limit/count
                            // see the real row total.
                            rows.extend_rows(sink.rows as usize);
                        } else {
                            rows.extend_flat(&sink.data);
                        }
                    }
                })?;
            let t = Instant::now();
            let batch = Self::shape_rows(ready, &tq, branch_rows)?;
            // Shared with the cache entry and the outcome, never copied.
            let value = CachedResult::Rows(Arc::new(batch));
            (value, search, exec_micros, t.elapsed().as_micros() as u64)
        };
        if let Some(fp) = &fingerprint {
            let entry = ResultEntry {
                value: value.clone(),
                exec_micros,
            };
            let cost = entry.cost();
            let key = Self::result_key(fp, silent, tq.limit, tq.offset);
            let evicted = self.cache.results().insert(key, entry, cost, generation, epoch_sum);
            if let Some(m) = metrics {
                m.record_cache_evictions(CacheKind::Result, evicted);
                m.set_cache_resident(CacheKind::Result, self.cache.results().resident_bytes());
            }
        }
        let (count, answer) = Self::answer(ready, spec.count_only, &value);
        let profile = spec.explain.then(|| {
            let profiles = recorder
                .as_ref()
                .and_then(|r| r.profiles.as_ref())
                .map_or_else(Vec::new, |p| std::mem::take(&mut p.lock()));
            Self::render_annotated(&plans, &profiles)
        });
        Ok(QueryOutcome {
            vars: tq.proj_names,
            count,
            answer,
            stats: QueryRunStats {
                prepare_micros: phases.total(),
                phases,
                exec_micros,
                decode_micros,
                search,
                rows: count,
                plan: Self::plan_text(&plans),
                cache: cache_status,
            },
            profile,
        })
    }

    /// Cache key for a finished result: the query fingerprint plus the
    /// entry family (silent count vs materialized id rows) and the
    /// `LIMIT`/`OFFSET` window, which the fingerprint deliberately
    /// excludes (so the *plan* cache can share entries across windows).
    fn result_key(
        fp: &[u8],
        silent: bool,
        limit: Option<usize>,
        offset: Option<usize>,
    ) -> Vec<u8> {
        let mut key = Vec::with_capacity(fp.len() + 19);
        key.extend_from_slice(fp);
        key.push(u8::from(silent));
        for window in [limit, offset] {
            match window {
                Some(n) => {
                    key.push(1);
                    key.extend_from_slice(&(n as u64).to_le_bytes());
                }
                None => key.push(0),
            }
        }
        key
    }

    /// Builds the outcome of a result-cache hit: nothing executes and
    /// nothing is decoded; the outcome shares the cached rows.
    fn serve_cached(
        ready: &Ready,
        count_only: bool,
        tq: &crate::translate::TranslatedQuery,
        entry: ResultEntry,
        phases: PhaseTimings,
    ) -> QueryOutcome {
        let (count, answer) = Self::answer(ready, count_only, &entry.value);
        QueryOutcome {
            vars: tq.proj_names.clone(),
            count,
            answer,
            stats: QueryRunStats {
                prepare_micros: phases.total(),
                phases,
                exec_micros: 0,
                decode_micros: 0,
                search: SearchStats::default(),
                rows: count,
                plan: "<served from result cache>".into(),
                cache: CacheStatus::ResultHit,
            },
            profile: None,
        }
    }

    /// The caller-facing shape of an answer: the count, plus — unless
    /// the request was count-only — the id rows by reference together
    /// with the store and delta dictionary they decode against.
    fn answer(ready: &Ready, count_only: bool, value: &CachedResult) -> (u64, Option<Answer>) {
        match value {
            CachedResult::Count(n) => (*n, None),
            CachedResult::Rows(rows) => (
                rows.len() as u64,
                (!count_only).then(|| Answer {
                    rows: Arc::clone(rows),
                    store: Arc::clone(&ready.store),
                    delta: Arc::clone(ready.delta.shared_dict()),
                }),
            ),
        }
    }

    /// Post-processes the collected per-branch id rows into the final
    /// answer: entailment dedup, `ORDER BY`, projection, `DISTINCT`,
    /// `OFFSET`/`LIMIT`.
    fn shape_rows(
        ready: &Ready,
        tq: &crate::translate::TranslatedQuery,
        mut branch_rows: Vec<RowBatch>,
    ) -> Result<RowBatch, ParjError> {
        if tq.dedup_full {
            // Entailment semantics: one row per distinct solution
            // mapping *within each branch* (projection applied below).
            for rows in &mut branch_rows {
                rows.sort_unstable();
                rows.dedup();
            }
        }
        let mut rows = {
            let mut it = branch_rows.into_iter();
            let mut merged = it.next().expect("at least one branch batch");
            for b in it {
                merged.append(&b);
            }
            merged
        };
        if !tq.order_by.is_empty() {
            // Resolve each ordering key to its column up front; an
            // unresolvable key means translate's projected-order-keys
            // invariant broke, which must surface as an error (a serving
            // process answers 500), never a panic inside the comparator.
            let mut key_cols = Vec::with_capacity(tq.order_by.len());
            for &(v, desc) in &tq.order_by {
                let col = if tq.full_rows {
                    v as usize
                } else {
                    tq.projection.iter().position(|&p| p == v).ok_or_else(|| {
                        ParjError::Internal(format!(
                            "ORDER BY key variable {v} is not in the projection"
                        ))
                    })?
                };
                key_cols.push((col, desc));
            }
            let dict = ready.dict_view();
            // Pre-validate every key id against the dictionary so the
            // decode inside the comparator below is infallible.
            for row in rows.rows() {
                for &(c, _) in &key_cols {
                    let id = row[c];
                    dict.decode_resource_ref(id).map_err(|e| {
                        ParjError::Internal(format!("ORDER BY key id {id} failed to decode: {e}"))
                    })?;
                }
            }
            // Deterministic total order on terms, compared as borrowed
            // views of their dictionary keys (SPARQL operator ordering is
            // out of scope; see ParsedQuery::order_by docs).
            let key_of = |id: Id| {
                dict.decode_resource_ref(id).expect("every key id pre-validated above")
            };
            rows.sort_by(|a, b| {
                for &(c, desc) in &key_cols {
                    let ord = key_of(a[c]).cmp(&key_of(b[c]));
                    let ord = if desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                a.cmp(b) // stable tiebreak on the raw ids
            });
        }
        if tq.full_rows {
            let mut proj = RowBatch::new(tq.projection.len());
            let mut scratch = Vec::with_capacity(tq.projection.len());
            for row in rows.rows() {
                scratch.clear();
                scratch.extend(tq.projection.iter().map(|&v| row[v as usize]));
                proj.push(&scratch);
            }
            rows = proj;
        }
        if tq.distinct {
            if tq.order_by.is_empty() {
                rows.sort_unstable();
                rows.dedup();
            } else {
                // Preserve the requested ordering: keep first
                // occurrences.
                let mut seen = std::collections::HashSet::new();
                rows.retain(|r| seen.insert(r.to_vec()));
            }
        }
        if let Some(off) = tq.offset {
            rows.drop_front(off);
        }
        if let Some(l) = tq.limit {
            rows.truncate(l);
        }
        Ok(rows)
    }

    /// Returns, per plan of the query, the **work units** (result rows
    /// emitted + array words touched) of every driver morsel the
    /// executor would pull off the shared cursor.
    ///
    /// Because PARJ workers share nothing and draw morsels dynamically,
    /// the parallel makespan with `K` threads on ideal hardware is
    /// bounded below by `max(total/K, max_morsel)` per plan; the
    /// benchmark harness reports the corresponding achievable speedup so
    /// the scalability of the morsel distribution is measurable even on
    /// hosts with fewer cores than worker threads.
    pub fn morsel_loads(
        &mut self,
        query: &str,
        over: &RunOverrides,
    ) -> Result<Vec<Vec<u64>>, ParjError> {
        self.finalize();
        let ready = self.ready_or_err()?;
        let (prepared, _, _, _) = Self::prepare_on(ready, query, self.config.cache)?;
        let Some((_tq, plans)) = prepared else {
            return Ok(Vec::new());
        };
        let opts = Self::exec_options(&self.config, over, None)?;
        plans
            .iter()
            .map(|plan| {
                parj_join::morsel_loads(ready.exec_source(), plan, &opts)
                    .map_err(|e| ParjError::InvalidOptions(e.to_string()))
            })
            .collect()
    }

    /// Renders the optimized plan(s) for a query without executing it.
    pub fn explain(&mut self, query: &str) -> Result<String, ParjError> {
        self.finalize();
        let ready = self.ready_or_err()?;
        let (prepared, _, _, _) = Self::prepare_on(ready, query, self.config.cache)?;
        Ok(match prepared {
            None => "<empty: constant absent from data>".to_string(),
            Some((_, plans)) => Self::plan_text(&plans),
        })
    }

    /// Renders the annotated-plan report of the request API's
    /// `explain(true)` mode.
    fn render_annotated(plans: &[PhysicalPlan], profiles: &[CapturedProfile]) -> String {
        use std::fmt::Write;
        let fallback = CapturedProfile::default();
        let mut out = String::new();
        for (pi, plan) in plans.iter().enumerate() {
            if plans.len() > 1 {
                writeln!(out, "-- union branch plan {pi} --").expect("write");
            }
            let prof = profiles.get(pi).unwrap_or(&fallback);
            for (si, line) in plan.explain().lines().enumerate() {
                match si.checked_sub(1).and_then(|probe| prof.step_search.get(probe)) {
                    None if si == 0 => {
                        // Driver line.
                        let fed = prof.rows.first().copied().unwrap_or(0);
                        if prof.driver.group_probes > 0 {
                            writeln!(
                                out,
                                "{line}   → {fed} rows ({} group checks)",
                                prof.driver.group_probes
                            )
                            .expect("write");
                        } else {
                            writeln!(out, "{line}   → {fed} rows").expect("write");
                        }
                    }
                    Some(st) => {
                        let probe = si - 1;
                        let rows_in = prof.rows.get(probe).copied().unwrap_or(0);
                        let rows_out = prof.rows.get(probe + 1).copied().unwrap_or(0);
                        writeln!(
                            out,
                            "{line}   ← {rows_in} probes ({} seq / {} bin / {} idx) → {rows_out} rows",
                            st.sequential_searches, st.binary_searches, st.index_lookups
                        )
                        .expect("write");
                    }
                    None => {
                        // Projection line.
                        writeln!(
                            out,
                            "{line}   = {} result rows",
                            prof.rows.last().copied().unwrap_or(0)
                        )
                        .expect("write");
                    }
                }
            }
        }
        out
    }

    /// Saves a snapshot of the finalized store. A pending mutation
    /// delta is folded into a full rebuild first, so the snapshot
    /// captures exactly the triples queries were seeing.
    pub fn save_snapshot(&mut self, path: impl AsRef<Path>) -> Result<(), ParjError> {
        self.fold_delta();
        self.finalize();
        let ready = self.ready.as_ref().expect("finalized");
        ready.store.save_snapshot(path)?;
        Ok(())
    }

    /// Loads an engine from a snapshot, rebuilding statistics and
    /// thresholds under `config`.
    pub fn load_snapshot(
        path: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<Parj, ParjError> {
        let store = TripleStore::load_snapshot(path)?;
        Ok(Self::from_store(store, config))
    }

    /// Manually constructs an engine around an existing store (used by
    /// the benchmark harness, which builds stores via the generators).
    pub fn from_store(mut store: TripleStore, config: EngineConfig) -> Parj {
        // Generator-built and snapshot-loaded stores arrive raw; apply
        // this engine's compression policy (also recording it in the
        // store options, so delta compaction keeps honoring it).
        if config.compress_replicas {
            store.compress_values(config.compress_min_values);
        }
        let stats = Stats::build_with_buckets(&store, config.histogram_buckets);
        let calibration = if config.calibrate {
            calibrate(&store, &config.calibration)
        } else {
            CalibrationResult::paper_defaults()
        };
        let thresholds = ThresholdTable::from_calibration(&store, &calibration);
        let hierarchy = config.reasoning.then(|| Hierarchy::extract(&store));
        let engine = Parj {
            cache: Arc::new(QueryCache::new(config.cache_bytes)),
            pool: Parj::make_pool(&config),
            config,
            staged: None,
            ready: Some(Ready::new(store, stats, thresholds, calibration, hierarchy)),
            metrics: Arc::new(EngineMetrics::new()),
        };
        engine.publish_store_gauges();
        engine
    }

    /// Spawns the engine-owned persistent pool when configured: pool
    /// workers serve as the extra participants beyond the submitting
    /// thread, so single-threaded engines need none.
    fn make_pool(config: &EngineConfig) -> Option<WorkerPool> {
        (config.use_pool && config.threads > 1).then(|| WorkerPool::new(config.threads - 1))
    }

    /// Live statistics of the persistent worker pool, when one exists.
    pub fn pool_stats(&self) -> Option<parj_join::PoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }
}

/// Per-plan step counters captured from the [`parj_join::ExecRecord`]
/// of a real run for the annotated-plan report.
#[derive(Default)]
struct CapturedProfile {
    rows: Vec<u64>,
    step_search: Vec<SearchStats>,
    driver: SearchStats,
}

/// Bridges the executor's once-per-run [`parj_join::Recorder`] callback
/// into the engine: plan-level metrics (probe volume, morsel count,
/// participant imbalance) and, under `explain`, a profile capture per
/// plan.
struct RunRecorder {
    metrics: Option<Arc<EngineMetrics>>,
    profiles: Option<parj_sync::OrderedMutex<Vec<CapturedProfile>>>,
}

impl parj_join::Recorder for RunRecorder {
    fn record_exec(&self, r: &parj_join::ExecRecord<'_>) {
        if let Some(m) = &self.metrics {
            // Tuples that entered probe steps (everything but the
            // final result count).
            let probe_rows: u64 = r.step_rows[..r.step_rows.len().saturating_sub(1)]
                .iter()
                .sum();
            // Load imbalance ×1000: max participant load over the
            // ideal per-participant share; 1000 = perfectly balanced.
            // Under morsel pulling each entry is what one participant
            // accumulated across every morsel it drew, so the ratio
            // measures the balance the dynamic cursor achieved.
            let max = r.worker_units.iter().copied().max().unwrap_or(0);
            let total: u64 = r.worker_units.iter().sum();
            let imbalance = (max * r.worker_units.len() as u64 * 1000)
                .checked_div(total)
                .unwrap_or(1000);
            m.record_plan_exec(probe_rows, imbalance, r.morsels);
        }
        if let Some(p) = &self.profiles {
            p.lock().push(CapturedProfile {
                rows: r.step_rows.to_vec(),
                step_search: r.step_search.to_vec(),
                driver: r.driver_search,
            });
        }
    }
}

impl Default for Parj {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Parj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Parj")
            .field("config", &self.config)
            .field("finalized", &self.ready.is_some())
            .field(
                "triples",
                &self.ready.as_ref().map(Ready::visible_triples),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;

    const DATA: &str = r#"
<http://e/ProfA> <http://e/teaches> <http://e/Math> .
<http://e/ProfA> <http://e/teaches> <http://e/Physics> .
<http://e/ProfB> <http://e/teaches> <http://e/Chem> .
<http://e/ProfC> <http://e/teaches> <http://e/Lit> .
<http://e/ProfA> <http://e/worksFor> <http://e/U1> .
<http://e/ProfB> <http://e/worksFor> <http://e/U2> .
<http://e/ProfC> <http://e/worksFor> <http://e/U2> .
<http://e/ProfA> <http://e/name> "Alice" .
"#;

    fn engine() -> Parj {
        let mut e = Parj::builder().threads(2).build();
        assert_eq!(e.load_ntriples_str(DATA).unwrap(), 8);
        e.finalize();
        e
    }

    /// A run's variables and decoded rows.
    struct Decoded {
        vars: Vec<String>,
        rows: Vec<Vec<Term>>,
    }

    fn run_query(e: &mut Parj, q: &str) -> Result<Decoded, ParjError> {
        let out = e.request(q).run()?;
        Ok(Decoded {
            rows: out.term_rows()?,
            vars: out.vars,
        })
    }

    fn run_count(e: &mut Parj, q: &str) -> Result<(u64, QueryRunStats), ParjError> {
        e.request(q).count_only().run().map(|o| (o.count, o.stats))
    }

    #[test]
    fn end_to_end_example_31() {
        let mut e = engine();
        let res = run_query(
            &mut e,
            "SELECT ?x ?z ?y WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> ?y }",
        )
        .unwrap();
        assert_eq!(res.vars, vec!["x", "z", "y"]);
        assert_eq!(res.rows.len(), 4);
        assert!(res
            .rows
            .iter()
            .any(|r| r[0] == Term::iri("http://e/ProfA") && r[1] == Term::iri("http://e/Physics")));
    }

    #[test]
    fn end_to_end_example_32_filter() {
        let mut e = engine();
        let (count, stats) = run_count(
            &mut e,
            "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> <http://e/U2> }",
        )
        .unwrap();
        assert_eq!(count, 2);
        assert!(stats.plan.contains("scan"));
    }

    #[test]
    fn silent_vs_full_agree() {
        let mut e = engine();
        let q = "SELECT ?x ?y WHERE { ?x <http://e/worksFor> ?y }";
        let (count, _) = run_count(&mut e, q).unwrap();
        let full = run_query(&mut e, q).unwrap();
        assert_eq!(count, full.rows.len() as u64);
    }

    #[test]
    fn missing_constant_empty() {
        let mut e = engine();
        let (count, stats) =
            run_count(&mut e, "SELECT ?x WHERE { ?x <http://e/teaches> <http://e/Nope> }").unwrap();
        assert_eq!(count, 0);
        assert!(stats.plan.contains("empty"));
        let res = run_query(&mut e, "SELECT ?x WHERE { ?x <http://e/nopred> ?y }").unwrap();
        assert!(res.rows.is_empty());
        assert_eq!(res.vars, vec!["x"]);
    }

    #[test]
    fn distinct_and_limit() {
        let mut e = engine();
        // Professors teaching anything: 3 distinct, 4 rows raw.
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z }";
        let (raw, _) = run_count(&mut e, q).unwrap();
        assert_eq!(raw, 4);
        let q = "SELECT DISTINCT ?x WHERE { ?x <http://e/teaches> ?z }";
        let (distinct, _) = run_count(&mut e, q).unwrap();
        assert_eq!(distinct, 3);
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z } LIMIT 2";
        let (limited, _) = run_count(&mut e, q).unwrap();
        assert_eq!(limited, 2);
        let rows = e.request(q).run().unwrap().id_rows();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn ask_query() {
        let mut e = engine();
        let (yes, _) =
            run_count(&mut e, "ASK { <http://e/ProfA> <http://e/worksFor> <http://e/U1> }").unwrap();
        assert_eq!(yes, 1);
        let (no, _) =
            run_count(&mut e, "ASK { <http://e/ProfA> <http://e/worksFor> <http://e/U2> }").unwrap();
        assert_eq!(no, 0);
    }

    #[test]
    fn predicate_variable_union() {
        let mut e = engine();
        // Everything about ProfA over any predicate: 2 teaches +
        // 1 worksFor + 1 name = 4 triples.
        let (count, _) = run_count(&mut e, "SELECT ?o WHERE { <http://e/ProfA> ?p ?o }").unwrap();
        assert_eq!(count, 4);
    }

    #[test]
    fn literals_in_queries() {
        let mut e = engine();
        let (count, _) =
            run_count(&mut e, r#"SELECT ?x WHERE { ?x <http://e/name> "Alice" }"#).unwrap();
        assert_eq!(count, 1);
        let (count, _) =
            run_count(&mut e, r#"SELECT ?x WHERE { ?x <http://e/name> "Bob" }"#).unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn overrides_thread_and_strategy() {
        let mut e = engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> ?y }";
        let base = run_count(&mut e, q).unwrap().0;
        for strategy in ProbeStrategy::TABLE5 {
            for threads in [1, 3, 8] {
                let got = e
                    .request(q)
                    .threads(threads)
                    .strategy(strategy)
                    .count_only()
                    .run()
                    .unwrap()
                    .count;
                assert_eq!(got, base);
            }
        }
    }

    #[test]
    fn request_builder_zero_threads_rejected() {
        let mut e = engine();
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z }";
        match e.request(q).threads(0).count_only().run() {
            Err(ParjError::InvalidOptions(msg)) => {
                assert!(msg.contains("thread"), "{msg}");
            }
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
        // The engine is unharmed afterwards.
        assert_eq!(run_count(&mut e, q).unwrap().0, 4);
    }

    #[test]
    fn incremental_load_after_finalize() {
        let mut e = engine();
        assert_eq!(e.num_triples(), 8);
        e.mutate()
            .insert(
                Term::iri("http://e/ProfD"),
                Term::iri("http://e/worksFor"),
                Term::iri("http://e/U1"),
            )
            .run()
            .unwrap();
        let (count, _) = run_count(&mut e, "SELECT ?x WHERE { ?x <http://e/worksFor> ?u }").unwrap();
        assert_eq!(count, 4);
        assert_eq!(e.num_triples(), 9);
    }

    #[test]
    fn snapshot_roundtrip_via_engine() {
        let mut e = engine();
        let dir = std::env::temp_dir().join(format!("parj-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.parj");
        e.save_snapshot(&path).unwrap();
        let mut back = Parj::load_snapshot(&path, EngineConfig::default()).unwrap();
        let q = "SELECT ?x ?y WHERE { ?x <http://e/worksFor> ?y }";
        assert_eq!(
            run_count(&mut back, q).unwrap().0,
            run_count(&mut e, q).unwrap().0
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_without_execution() {
        let mut e = engine();
        let text = e
            .explain("SELECT ?x WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> <http://e/U2> }")
            .unwrap();
        assert!(text.contains("scan"));
        assert!(text.contains("probe"));
    }

    #[test]
    fn request_explain_attaches_annotated_plan() {
        let mut e = engine();
        let out = e
            .request("SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> <http://e/U2> }")
            .explain(true)
            .run()
            .unwrap();
        assert_eq!(out.count, 2);
        // Driver row count, probe search counts and the result total all
        // appear.
        let profile = out.profile.as_deref().expect("explain attaches a profile");
        assert!(profile.contains("→ 2 rows"), "{profile}");
        assert!(profile.contains("probes ("), "{profile}");
        assert!(profile.contains("= 2 result rows"), "{profile}");
        // Union plans are labelled per branch.
        let union = e
            .request("SELECT ?x WHERE { { ?x <http://e/teaches> ?y } UNION { ?x <http://e/worksFor> ?y } }")
            .explain(true)
            .count_only()
            .run()
            .unwrap();
        let profile = union.profile.as_deref().expect("explain attaches a profile");
        assert!(profile.contains("union branch plan 0"), "{profile}");
        assert!(profile.contains("union branch plan 1"), "{profile}");
        // The full report stitches the annotated plan and the phase
        // summary together.
        let report = out.report();
        assert!(report.contains("probes ("), "{report}");
        assert!(report.contains("phases: parse"), "{report}");
        // Without explain, no profile is attached.
        let out = e
            .request("SELECT ?x WHERE { ?x <http://e/teaches> ?z }")
            .run()
            .unwrap();
        assert!(out.profile.is_none());
    }

    #[test]
    fn request_records_phase_timings() {
        let mut e = engine();
        let out = e
            .request("SELECT ?x ?y WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> ?y }")
            .run()
            .unwrap();
        assert_eq!(out.count, 4);
        assert_eq!(out.stats.prepare_micros, out.stats.phases.total());
        let report = out.report();
        assert!(report.contains("phases: parse"), "{report}");
        assert!(report.contains("rows: 4"), "{report}");
        assert!(report.contains("searches:"), "{report}");
    }

    #[test]
    fn metrics_populated_after_queries() {
        let mut e = engine();
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z }";
        assert_eq!(e.request(q).count_only().run().unwrap().count, 4);
        assert!(matches!(
            e.request(q).max_rows(2).count_only().run(),
            Err(ParjError::BudgetExceeded { .. })
        ));
        let snap = e.metrics_snapshot();
        assert!(
            snap.families.len() >= 12,
            "expected >= 12 metric families, got {}",
            snap.families.len()
        );
        assert_eq!(snap.value("parj_queries_total", &[("outcome", "ok")]), Some(1));
        assert_eq!(snap.value("parj_queries_total", &[("outcome", "budget")]), Some(1));
        assert_eq!(snap.value("parj_queries_inflight", &[]), Some(0));
        assert_eq!(snap.value("parj_store_triples", &[]), Some(8));
        assert_eq!(
            snap.value("parj_load_statements_total", &[("result", "loaded")]),
            Some(8)
        );
        assert!(snap.value("parj_result_rows_total", &[]).unwrap() >= 4);
        // Per-predicate memory gauges carry decoded labels.
        assert!(snap
            .value("parj_store_replica_bytes", &[("predicate", "<http://e/teaches>")])
            .is_some_and(|v| v > 0));
        // Exposition renders both formats.
        let prom = snap.to_prometheus();
        assert!(prom.contains("parj_queries_total"), "{prom}");
        assert!(prom.contains("outcome=\"ok\""), "{prom}");
        let json = snap.to_json();
        assert!(json.contains("parj_queries_total"), "{json}");
    }

    #[test]
    fn record_metrics_off_leaves_registry_zeroed() {
        let mut e = Parj::builder().threads(1).record_metrics(false).build();
        e.load_ntriples_str(DATA).unwrap();
        e.finalize();
        let (count, _) = run_count(&mut e, "SELECT ?x WHERE { ?x <http://e/teaches> ?z }").unwrap();
        assert_eq!(count, 4);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.value("parj_queries_total", &[("outcome", "ok")]), Some(0));
        assert_eq!(snap.value("parj_store_triples", &[]), Some(0));
        assert_eq!(
            snap.value("parj_load_statements_total", &[("result", "loaded")]),
            Some(0)
        );
    }

    #[test]
    fn query_on_empty_engine() {
        let mut e = Parj::new();
        let res = run_query(&mut e, "SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        assert!(res.rows.is_empty());
    }

    /// Ontology + data for the §6 reasoning extension tests.
    const ONTOLOGY: &str = r#"
<http://e/GradStudent> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://e/Student> .
<http://e/Student> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://e/Person> .
<http://e/Prof> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://e/Person> .
<http://e/advisor> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://e/knows> .
<http://e/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/GradStudent> .
<http://e/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Student> .
<http://e/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Prof> .
<http://e/carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> .
<http://e/alice> <http://e/advisor> <http://e/bob> .
<http://e/bob> <http://e/knows> <http://e/carol> .
"#;

    fn reasoning_engine(on: bool) -> Parj {
        let mut e = Parj::builder().threads(2).rdfs_reasoning(on).build();
        e.load_ntriples_str(ONTOLOGY).unwrap();
        e.finalize();
        e
    }

    #[test]
    fn reasoning_subclass_union() {
        let q = "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> }";
        // Without reasoning only the direct assertion matches.
        let mut plain = reasoning_engine(false);
        assert_eq!(run_count(&mut plain, q).unwrap().0, 1); // carol
        // With reasoning: alice (GradStudent ⊑ Student ⊑ Person), bob
        // (Prof ⊑ Person), carol — and alice only ONCE although she is
        // typed under two subclasses (entailment dedup).
        let mut smart = reasoning_engine(true);
        assert_eq!(run_count(&mut smart, q).unwrap().0, 3);
        let res = run_query(&mut smart, q).unwrap();
        let mut names: Vec<String> = res.rows.iter().map(|r| r[0].to_string()).collect();
        names.sort();
        assert_eq!(
            names,
            vec!["<http://e/alice>", "<http://e/bob>", "<http://e/carol>"]
        );
    }

    #[test]
    fn reasoning_subproperty_union() {
        let q = "SELECT ?a ?b WHERE { ?a <http://e/knows> ?b }";
        let mut plain = reasoning_engine(false);
        assert_eq!(run_count(&mut plain, q).unwrap().0, 1); // bob knows carol
        let mut smart = reasoning_engine(true);
        // advisor ⊑ knows adds alice→bob.
        assert_eq!(run_count(&mut smart, q).unwrap().0, 2);
    }

    #[test]
    fn reasoning_matches_materialization_oracle() {
        // Forward-chain the closure by hand, load it into a plain
        // engine, and compare DISTINCT results with the reasoning
        // engine on the original data.
        let mut materialized = Parj::builder().threads(1).build();
        materialized.load_ntriples_str(ONTOLOGY).unwrap();
        // Manual closure for this ontology:
        let closure = [
            ("alice", "Student"), // from GradStudent (already asserted too)
            ("alice", "Person"),
            ("bob", "Person"),
        ]
        .into_iter()
        .map(|(s, c)| {
            (
                Term::iri(format!("http://e/{s}")),
                Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                Term::iri(format!("http://e/{c}")),
            )
        });
        materialized
            .mutate()
            .insert_all(closure)
            .insert(
                Term::iri("http://e/alice"),
                Term::iri("http://e/knows"),
                Term::iri("http://e/bob"),
            )
            .run()
            .unwrap();
        let mut smart = reasoning_engine(true);
        for q in [
            "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> }",
            "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Student> }",
            "SELECT ?a ?b WHERE { ?a <http://e/knows> ?b }",
            "SELECT ?a ?c WHERE { ?a <http://e/knows> ?b . ?b <http://e/knows> ?c }",
        ] {
            let (expect, _) = run_count(&mut materialized, q).unwrap();
            let (got, _) = run_count(&mut smart, q).unwrap();
            assert_eq!(got, expect, "{q}");
        }
    }

    #[test]
    fn reasoning_preserves_limit_and_threads() {
        let mut smart = reasoning_engine(true);
        let q = "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> } LIMIT 2";
        assert_eq!(run_count(&mut smart, q).unwrap().0, 2);
        for threads in [1, 4] {
            let q = "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> }";
            assert_eq!(
                smart.request(q).threads(threads).count_only().run().unwrap().count,
                3
            );
        }
    }

    #[test]
    fn union_queries() {
        let mut e = engine();
        // teaches ∪ worksFor: 4 + 3 rows, multiset semantics.
        let q = "SELECT ?x ?y WHERE { \
                 { ?x <http://e/teaches> ?y } UNION { ?x <http://e/worksFor> ?y } }";
        let (count, _) = run_count(&mut e, q).unwrap();
        assert_eq!(count, 7);
        let res = run_query(&mut e, q).unwrap();
        assert_eq!(res.rows.len(), 7);

        // Overlapping branches keep duplicates (multiset union)…
        let q = "SELECT ?x WHERE { \
                 { ?x <http://e/teaches> ?z } UNION { ?x <http://e/teaches> ?z } }";
        assert_eq!(run_count(&mut e, q).unwrap().0, 8);
        // …unless DISTINCT.
        let q = "SELECT DISTINCT ?x WHERE { \
                 { ?x <http://e/teaches> ?z } UNION { ?x <http://e/teaches> ?z } }";
        assert_eq!(run_count(&mut e, q).unwrap().0, 3);

        // A branch with a missing constant contributes nothing; the
        // other still answers.
        let q = "SELECT ?x WHERE { \
                 { ?x <http://e/teaches> <http://e/Nope> } UNION { ?x <http://e/worksFor> <http://e/U2> } }";
        assert_eq!(run_count(&mut e, q).unwrap().0, 2);

        // A projected variable unbound in one branch is rejected.
        let q = "SELECT ?y WHERE { \
                 { ?x <http://e/teaches> ?y } UNION { ?x <http://e/worksFor> ?z } }";
        assert!(matches!(run_query(&mut e, q), Err(ParjError::Unsupported(_))));

        // Joins inside branches work.
        let q = "SELECT ?x ?c WHERE { \
                 { ?x <http://e/teaches> ?c . ?x <http://e/worksFor> <http://e/U1> } \
                 UNION { ?x <http://e/teaches> ?c . ?x <http://e/worksFor> <http://e/U2> } }";
        assert_eq!(run_count(&mut e, q).unwrap().0, 4);
    }

    #[test]
    fn union_with_reasoning_dedups_per_branch() {
        let mut smart = reasoning_engine(true);
        // Within one branch alice's double typing (GradStudent+Student)
        // dedups; the identical second branch re-contributes every
        // solution (multiset union).
        let person = "SELECT ?x WHERE { \
            { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> } \
            UNION \
            { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> } }";
        assert_eq!(run_count(&mut smart, person).unwrap().0, 6); // 3 + 3
    }

    #[test]
    fn order_by_and_offset() {
        let mut e = engine();
        // Professors ordered by IRI ascending.
        let res = run_query(&mut e, "SELECT ?x WHERE { ?x <http://e/worksFor> ?u } ORDER BY ?x")
            .unwrap();
        let names: Vec<String> = res.rows.iter().map(|r| r[0].to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 3);

        // DESC reverses.
        let res = run_query(
            &mut e,
            "SELECT ?x WHERE { ?x <http://e/worksFor> ?u } ORDER BY DESC(?x)",
        )
        .unwrap();
        let desc: Vec<String> = res.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(desc, sorted.iter().rev().cloned().collect::<Vec<_>>());

        // ORDER BY a non-projected variable forces full-width rows.
        let res = run_query(
            &mut e,
            "SELECT ?x WHERE { ?x <http://e/worksFor> ?u } ORDER BY ?u ?x",
        )
        .unwrap();
        assert_eq!(res.rows.len(), 3);
        assert_eq!(res.vars, vec!["x"]);

        // OFFSET slices after ordering; pagination covers everything.
        let page1 = run_query(
            &mut e,
            "SELECT ?x WHERE { ?x <http://e/worksFor> ?u } ORDER BY ?x LIMIT 2",
        )
        .unwrap();
        let page2 = run_query(
            &mut e,
            "SELECT ?x WHERE { ?x <http://e/worksFor> ?u } ORDER BY ?x OFFSET 2 LIMIT 2",
        )
        .unwrap();
        assert_eq!(page1.rows.len(), 2);
        assert_eq!(page2.rows.len(), 1);
        let mut all: Vec<String> = page1
            .rows
            .iter()
            .chain(&page2.rows)
            .map(|r| r[0].to_string())
            .collect();
        assert_eq!(all, sorted);
        all.dedup();
        assert_eq!(all.len(), 3);

        // Silent-mode count honors OFFSET without materializing.
        let (count, _) =
            run_count(&mut e, "SELECT ?x WHERE { ?x <http://e/teaches> ?z } OFFSET 3").unwrap();
        assert_eq!(count, 1); // 4 teaching rows - 3

        // DISTINCT preserves requested order.
        let res = run_query(
            &mut e,
            "SELECT DISTINCT ?x WHERE { ?x <http://e/teaches> ?z } ORDER BY DESC(?x)",
        )
        .unwrap();
        let names: Vec<String> = res.rows.iter().map(|r| r[0].to_string()).collect();
        let mut check = names.clone();
        check.sort();
        check.reverse();
        assert_eq!(names, check);
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn budget_exceeded_surfaces_with_partial_stats() {
        let mut e = engine();
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z }"; // 4 rows
        match e.request(q).max_rows(2).count_only().run() {
            Err(ParjError::BudgetExceeded { rows, partial }) => {
                assert!(rows > 2, "overshoot still exceeds the limit: {rows}");
                assert_eq!(partial.rows, rows);
                assert!(partial.plan.contains("scan"));
            }
            other => panic!("expected budget error, got {other:?}"),
        }
        // A budget the result fits under does not trip…
        let count = e.request(q).max_rows(4).count_only().run().unwrap().count;
        assert_eq!(count, 4);
        // …and the budget counts pre-LIMIT rows: LIMIT 1 still produces
        // 4 join rows, so a budget of 2 trips anyway.
        let limited = "SELECT ?x WHERE { ?x <http://e/teaches> ?z } LIMIT 1";
        assert!(matches!(
            e.request(limited).max_rows(2).count_only().run(),
            Err(ParjError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn engine_wide_budget_from_config() {
        let mut e = Parj::builder().threads(2).max_result_rows(1).build();
        e.load_ntriples_str(DATA).unwrap();
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z }";
        assert!(matches!(
            run_count(&mut e, q),
            Err(ParjError::BudgetExceeded { .. })
        ));
        // A per-run override lifts the engine-wide cap.
        let count = e.request(q).max_rows(100).count_only().run().unwrap().count;
        assert_eq!(count, 4);
    }

    #[test]
    fn cancelled_token_stops_query_and_resets() {
        let mut e = engine();
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z }";
        let token = CancelToken::new();
        token.cancel();
        match e.request(q).cancel(token.clone()).count_only().run() {
            Err(ParjError::Cancelled { partial }) => assert_eq!(partial.rows, 0),
            other => panic!("expected cancellation, got {other:?}"),
        }
        // The engine survives and the token re-arms.
        token.reset();
        assert_eq!(
            e.request(q).cancel(token).count_only().run().unwrap().count,
            4
        );
    }

    #[test]
    fn expired_deadline_stops_query() {
        let mut e = engine();
        let q = "SELECT ?x ?z ?y WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> ?y }";
        match e.request(q).timeout(Duration::ZERO).run() {
            Err(ParjError::DeadlineExceeded { elapsed, .. }) => {
                assert!(elapsed >= Duration::ZERO);
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        // A generous deadline lets the same query finish.
        let out = e.request(q).timeout(Duration::from_secs(60)).run().unwrap();
        assert_eq!(out.id_rows().len(), 4);
    }

    #[test]
    fn guard_spans_union_branches() {
        let mut e = engine();
        // Each branch alone produces 4 rows; the shared budget of 5
        // must trip on the second branch because rows accumulate
        // across branches of one run.
        let q = "SELECT ?x WHERE { \
                 { ?x <http://e/teaches> ?z } UNION { ?x <http://e/teaches> ?z } }";
        assert_eq!(e.request(q).max_rows(8).count_only().run().unwrap().count, 8);
        match e.request(q).max_rows(5).count_only().run() {
            Err(ParjError::BudgetExceeded { rows, .. }) => assert!(rows > 5),
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn sparql_errors_surface() {
        let mut e = engine();
        assert!(matches!(
            run_query(&mut e, "SELECT ?x WHERE { OPTIONAL { ?x ?p ?o } }"),
            Err(ParjError::Sparql(_))
        ));
        assert!(matches!(
            run_query(&mut e, "SELECT ?p WHERE { ?x ?p ?o }"),
            Err(ParjError::Unsupported(_))
        ));
    }

    fn cached_engine() -> Parj {
        let mut e = Parj::builder().threads(2).cache(true).build();
        assert_eq!(e.load_ntriples_str(DATA).unwrap(), 8);
        e.finalize();
        e
    }

    /// Every count-only run must report exactly the row count of the
    /// materializing run of the same query — across `OFFSET`/`LIMIT`
    /// windows, `DISTINCT`, unions, and zero-arity (`ASK`-style)
    /// bodies.
    #[test]
    fn count_only_matches_materialized_len() {
        let mut e = engine();
        let bodies = [
            "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }",
            "SELECT DISTINCT ?x WHERE { ?x <http://e/teaches> ?z }",
            "SELECT ?x WHERE { { ?x <http://e/teaches> ?z } UNION { ?x <http://e/worksFor> ?z } }",
            "ASK { ?x <http://e/teaches> ?z }",
            "ASK { <http://e/ProfA> <http://e/name> \"Alice\" }",
        ];
        for body in bodies {
            for offset in [None, Some(0usize), Some(2), Some(100)] {
                for limit in [None, Some(0usize), Some(1), Some(3), Some(100)] {
                    let mut q = body.to_string();
                    if let Some(l) = limit {
                        q.push_str(&format!(" LIMIT {l}"));
                    }
                    if let Some(o) = offset {
                        q.push_str(&format!(" OFFSET {o}"));
                    }
                    let count = e.request(&q).count_only().run().unwrap().count;
                    let out = e.request(&q).run().unwrap();
                    let rows = out.id_rows();
                    assert_eq!(
                        count,
                        rows.len() as u64,
                        "count/materialized divergence for {q}"
                    );
                    assert_eq!(count, out.count, "outcome count mismatch for {q}");
                }
            }
        }
    }

    #[test]
    fn zero_arity_rows_report_match_count() {
        let mut e = engine();
        // ASK carries an implicit LIMIT 1; a match is one empty row.
        let out = e.request("ASK { ?x <http://e/teaches> ?z }").run().unwrap();
        assert_eq!(out.count, 1);
        assert_eq!(out.id_rows().len(), 1);
        assert!(out.id_rows().iter().all(Vec::is_empty));
        // Lifting the limit exposes every zero-arity match, not zero.
        let out = e
            .request("ASK { ?x <http://e/teaches> ?z } LIMIT 100")
            .run()
            .unwrap();
        assert_eq!(out.count, 4);
        assert_eq!(out.id_rows().len(), 4);
        let out = e
            .request("ASK { <http://e/ProfA> <http://e/worksFor> <http://e/U2> }")
            .run()
            .unwrap();
        assert_eq!(out.count, 0);
    }

    #[test]
    fn cache_off_reports_off_and_stays_cold() {
        let mut e = engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        for _ in 0..2 {
            let out = e.request(q).run().unwrap();
            assert_eq!(out.stats.cache, crate::CacheStatus::Off);
            assert_eq!(out.count, 4);
        }
    }

    #[test]
    fn result_cache_serves_identical_answers() {
        let mut cold = engine();
        let mut e = cached_engine();
        let q = "SELECT ?x ?z ?y WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> ?y }";
        let first = e.request(q).run().unwrap();
        assert_eq!(first.stats.cache, crate::CacheStatus::Miss);
        let second = e.request(q).run().unwrap();
        assert_eq!(second.stats.cache, crate::CacheStatus::ResultHit);
        assert_eq!(second.stats.exec_micros, 0);
        let reference = cold.request(q).run().unwrap();
        let sort = |mut rows: Vec<Vec<Term>>| {
            rows.sort();
            rows
        };
        let cold_rows = sort(reference.term_rows().unwrap());
        assert_eq!(sort(first.term_rows().unwrap()), cold_rows);
        assert_eq!(sort(second.term_rows().unwrap()), cold_rows);
    }

    #[test]
    fn renamed_query_hits_the_same_entry() {
        let mut e = cached_engine();
        let a = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        let b = "SELECT ?s ?c WHERE { ?s <http://e/teaches> ?c }";
        assert_eq!(e.request(a).run().unwrap().stats.cache, crate::CacheStatus::Miss);
        let out = e.request(b).run().unwrap();
        assert_eq!(out.stats.cache, crate::CacheStatus::ResultHit);
        // Names still come from the *request's* text, not the entry's.
        assert_eq!(out.vars, vec!["s", "c"]);
    }

    #[test]
    fn plan_cache_shares_across_limit_windows() {
        let mut e = cached_engine();
        let base = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        assert_eq!(
            e.request(base).run().unwrap().stats.cache,
            crate::CacheStatus::Miss
        );
        // Different LIMIT ⇒ different result entry, same plan entry.
        let out = e.request(&format!("{base} LIMIT 2")).run().unwrap();
        assert_eq!(out.stats.cache, crate::CacheStatus::PlanHit);
        assert_eq!(out.stats.phases.optimize_micros, 0);
        assert_eq!(out.count, 2);
    }

    #[test]
    fn count_and_rows_modes_key_separate_entries() {
        let mut e = cached_engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        let counted = e.request(q).count_only().run().unwrap();
        assert_eq!(counted.stats.cache, crate::CacheStatus::Miss);
        // A rows request must not be served from the silent count
        // entry — it needs the materialized ids.
        let rows = e.request(q).run().unwrap();
        assert_eq!(rows.stats.cache, crate::CacheStatus::PlanHit);
        assert_eq!(rows.id_rows().len(), 4);
        // The repeat is served the materialized entry.
        let again = e.request(q).run().unwrap();
        assert_eq!(again.stats.cache, crate::CacheStatus::ResultHit);
        assert_eq!(again.id_rows().len(), 4);
        // And the silent count is served on repeat.
        assert_eq!(
            e.request(q).count_only().run().unwrap().stats.cache,
            crate::CacheStatus::ResultHit
        );
    }

    #[test]
    fn answers_resolve_against_their_own_snapshot() {
        let mut e = engine();
        let q = "SELECT ?x ?n WHERE { ?x <http://e/name> ?n }";
        let out = e.request(q).run().unwrap();
        let before = out.term_rows().unwrap();
        assert_eq!(
            before,
            vec![vec![Term::iri("http://e/ProfA"), Term::literal("Alice")]]
        );
        // New terms in the delta, more new terms while an outcome holds
        // the delta dictionary, then a rebuild with other data: each
        // outcome still reads the terms its ids stood for.
        let name = |s: &str, n: &str| (Term::iri(s), Term::iri("http://e/name"), Term::literal(n));
        e.mutate()
            .insert_all([name("http://e/ProfZ", "Zed")])
            .run()
            .unwrap();
        let mid = e.request(q).run().unwrap();
        let mid_rows = mid.term_rows().unwrap();
        assert!(mid_rows.contains(&vec![Term::iri("http://e/ProfZ"), Term::literal("Zed")]));
        e.mutate()
            .insert_all([name("http://e/ProfY", "Yan")])
            .run()
            .unwrap();
        e.load_ntriples_str("<http://e/Q> <http://e/name> \"Quinn\" .")
            .unwrap();
        e.finalize();
        assert_eq!(out.term_rows().unwrap(), before);
        assert_eq!(mid.term_rows().unwrap(), mid_rows);
        assert_eq!(e.request(q).run().unwrap().count, 4);
    }

    #[test]
    fn undecodable_ids_are_internal_errors_not_panics() {
        let mut e = engine();
        let mut out = e
            .request("SELECT ?x WHERE { ?x <http://e/teaches> ?z }")
            .run()
            .unwrap();
        let ready = e.ready.as_ref().expect("finalized");
        out.answer = Some(Answer {
            rows: Arc::new(RowBatch::from_parts(1, vec![Id::MAX - 1])),
            store: Arc::clone(&ready.store),
            delta: Arc::clone(ready.delta.shared_dict()),
        });
        assert!(matches!(out.term_rows(), Err(ParjError::Internal(_))));
        let answer = out.answer().expect("rows were requested");
        assert!(matches!(
            answer.term(Id::MAX - 1),
            Err(ParjError::Internal(_))
        ));
        assert!(matches!(out.to_table(), Err(ParjError::Internal(_))));
    }

    #[test]
    fn updates_invalidate_cached_results() {
        let mut e = cached_engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        assert_eq!(e.request(q).run().unwrap().count, 4);
        assert_eq!(e.request(q).run().unwrap().stats.cache, crate::CacheStatus::ResultHit);
        let out = e
            .mutate()
            .insert(
                Term::iri("http://e/ProfD"),
                Term::iri("http://e/teaches"),
                Term::iri("http://e/Art"),
            )
            .run()
            .unwrap();
        assert_eq!(out.cache_invalidations, 1, "only the touched predicate bumps");
        // The write bumped the epoch of <teaches>: the old entry is
        // stale and the fresh answer reflects the new triple.
        let out = e.request(q).run().unwrap();
        assert_eq!(out.stats.cache, crate::CacheStatus::Miss);
        assert_eq!(out.count, 5);
        assert_eq!(e.request(q).run().unwrap().count, 5);
    }

    #[test]
    fn bypass_budget_and_explain_skip_the_cache() {
        let mut e = cached_engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        // Explicit bypass: nothing inserted...
        let out = e.request(q).bypass_cache().run().unwrap();
        assert_eq!(out.stats.cache, crate::CacheStatus::Bypassed);
        // ...so the next cached run is still a miss.
        assert_eq!(e.request(q).run().unwrap().stats.cache, crate::CacheStatus::Miss);
        // Row-budgeted runs bypass: a budget changes the answer itself
        // (BudgetExceeded vs a complete cached result), so budgeted runs
        // must neither read nor write the cache.
        let budgeted = e.request(q).max_rows(1_000_000).run().unwrap();
        assert_eq!(budgeted.stats.cache, crate::CacheStatus::Bypassed);
        // EXPLAIN runs execute for real, never served from cache.
        let explained = e.request(q).explain(true).run().unwrap();
        assert_eq!(explained.stats.cache, crate::CacheStatus::Bypassed);
        assert!(explained.profile.is_some());
        // The cached entry is still served afterwards, unchanged.
        assert_eq!(
            e.request(q).run().unwrap().stats.cache,
            crate::CacheStatus::ResultHit
        );
    }

    #[test]
    fn deadline_and_cancel_guarded_runs_use_the_cache() {
        let mut e = cached_engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        // A deadline-guarded run both populates and is served from the
        // cache: guards abort with an error before any insert, so a
        // successful guarded run is a complete answer like any other.
        // (The serving layer attaches a cancel token to every request.)
        let first = e
            .request(q)
            .timeout(Duration::from_secs(60))
            .cancel(crate::CancelToken::new())
            .run()
            .unwrap();
        assert_eq!(first.stats.cache, crate::CacheStatus::Miss);
        let second = e.request(q).timeout(Duration::from_secs(60)).run().unwrap();
        assert_eq!(second.stats.cache, crate::CacheStatus::ResultHit);
        assert_eq!(second.count, first.count);
        // And an unguarded run shares the same entry.
        assert_eq!(
            e.request(q).run().unwrap().stats.cache,
            crate::CacheStatus::ResultHit
        );
    }

    #[test]
    fn cache_metrics_feed_the_registry() {
        let mut e = cached_engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        e.request(q).run().unwrap();
        e.request(q).run().unwrap();
        let snap = e.metrics_snapshot();
        assert_eq!(
            snap.value("parj_cache_misses_total", &[("cache", "result")]),
            Some(1)
        );
        assert_eq!(
            snap.value("parj_cache_hits_total", &[("cache", "result")]),
            Some(1)
        );
        assert_eq!(
            snap.value("parj_cache_hits_total", &[("cache", "plan")]),
            Some(0)
        );
        assert!(
            snap.value("parj_cache_resident_bytes", &[("cache", "result")])
                .unwrap()
                > 0
        );
    }

    #[test]
    fn cached_report_names_the_hit() {
        let mut e = cached_engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        assert!(e.request(q).run().unwrap().report().contains("cache: miss"));
        assert!(e
            .request(q)
            .run()
            .unwrap()
            .report()
            .contains("cache: result-hit"));
    }
}
