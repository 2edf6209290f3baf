//! The PARJ engine: configuration, lifecycle, and query execution.

mod lifecycle;
mod observe;
mod run;

use std::time::Duration;

use parj_sync::{Arc, LockLevel, OrderedMutex};

use parj_cache::QueryCache;
use parj_dict::DictView;
use parj_join::{
    calibrate, CalibrationConfig, CalibrationResult, CancelToken, ExecSource, ProbeStrategy,
    ThresholdTable, WorkerPool, DEFAULT_MORSEL_SIZE,
};
use parj_obs::EngineMetrics;
use parj_optimizer::Stats;
use parj_store::audit::{self, AuditReport};
use parj_store::{DeltaOverlay, StoreBuilder, StoreOptions, TripleStore};

use crate::hierarchy::Hierarchy;
use crate::loader::Loader;

/// Engine configuration, fixed when [`EngineConfig::loader`] (or
/// [`EngineConfig::build`], for an empty engine) starts one. Set fields
/// directly, or chain the setters from [`Parj::builder`]:
///
/// ```
/// let engine = parj_core::Parj::builder().threads(2).cache(true).build();
/// assert_eq!(engine.config().threads, 2);
/// ```
///
/// Per-query aspects are overridden on the request
/// ([`crate::QueryRequest`]).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads per query, and the engine's parallelism ceiling:
    /// the engine owns a pool of `threads − 1` workers that join the
    /// submitting thread, so a request can lower the count for its run
    /// ([`crate::QueryRequest::threads`]) but never seat more participants
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
    /// Probe strategy; PARJ's default is Algorithm 1 switching between
    /// sequential search from the cursor and the ID-to-Position index,
    /// galloping where a replica has no index
    /// ([`ProbeStrategy::AdaptiveIndex`]).
    pub strategy: ProbeStrategy,
    /// Store build options (ID-to-Position index on/off + interval).
    pub store: StoreOptions,
    /// Run Algorithm 2's timed calibration when the engine is built.
    /// When `false` the paper's published windows (200 binary / 20
    /// index) are used — deterministic and good on commodity hardware.
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
    /// unlimited. Per-run [`crate::QueryRequest::timeout`] wins when set.
    pub timeout: Option<Duration>,
    /// Result-row budget applied to every query: the join aborts with
    /// [`crate::ParjError::BudgetExceeded`] once it has *produced* more
    /// rows than this (counted before `LIMIT`/`OFFSET` trimming, with a
    /// bounded overshoot of up to `threads × GUARD_BATCH`). `None`
    /// means unlimited. Per-run [`crate::QueryRequest::max_rows`] wins.
    pub max_result_rows: Option<u64>,
    /// Feed the engine's [`EngineMetrics`] registry from query runs,
    /// loads and store rebuilds. When `false` the executor carries no
    /// recorder and the hot path is untouched. Default: `true` (the
    /// registry is lock-light — atomic counters only).
    pub record_metrics: bool,
    /// Serve repeated queries from the plan/result cache. Entries are
    /// stamped with the engine version they were computed on and never
    /// served to a request on another one, so cached answers are always
    /// identical to cold runs.
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
            strategy: ProbeStrategy::default(),
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
            compress_min_values: self.compress_replicas.then_some(self.compress_min_values),
            ..self.store
        }
    }

    /// Worker threads per query (at least 1).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Worker threads for bulk loads (at least 1). Results are
    /// byte-identical at any value — this tunes speed only.
    pub fn load_threads(mut self, n: usize) -> Self {
        self.load_threads = n.max(1);
        self
    }

    /// Driver keys per morsel (at least 1; see
    /// [`EngineConfig::morsel_size`]).
    pub fn morsel_size(mut self, n: usize) -> Self {
        self.morsel_size = n.max(1);
        self
    }

    /// Probe strategy.
    pub fn strategy(mut self, s: ProbeStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Build ID-to-Position indexes (§4.2). Default: on.
    pub fn build_idpos(mut self, on: bool) -> Self {
        self.store.build_idpos = on;
        self
    }

    /// ID-to-Position block interval (multiple of 64).
    pub fn idpos_interval(mut self, interval: usize) -> Self {
        self.store.idpos_interval = interval;
        self
    }

    /// Run the timed calibration of Algorithm 2 when the engine is built.
    pub fn calibrate(mut self, on: bool) -> Self {
        self.calibrate = on;
        self
    }

    /// Calibration tuning.
    pub fn calibration_config(mut self, cfg: CalibrationConfig) -> Self {
        self.calibration = cfg;
        self
    }

    /// Histogram resolution (at least 1 bucket).
    pub fn histogram_buckets(mut self, buckets: usize) -> Self {
        self.histogram_buckets = buckets.max(1);
        self
    }

    /// Wall-clock deadline for every query run by this engine.
    pub fn timeout(mut self, limit: Duration) -> Self {
        self.timeout = Some(limit);
        self
    }

    /// Result-row budget for every query run by this engine (rows
    /// produced by the join, pre-`LIMIT`).
    pub fn max_result_rows(mut self, rows: u64) -> Self {
        self.max_result_rows = Some(rows);
        self
    }

    /// Feed the engine's metrics registry (see
    /// [`EngineConfig::record_metrics`]).
    pub fn record_metrics(mut self, on: bool) -> Self {
        self.record_metrics = on;
        self
    }

    /// Serve repeated queries from the plan/result cache (see
    /// [`EngineConfig::cache`]).
    pub fn cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Byte budget for cached results (see
    /// [`EngineConfig::cache_bytes`]).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Per-predicate delta size that triggers compaction during a
    /// mutation batch (see
    /// [`EngineConfig::delta_compaction_threshold`]; `0` disables).
    pub fn delta_compaction_threshold(mut self, pairs: usize) -> Self {
        self.delta_compaction_threshold = pairs;
        self
    }

    /// Block-compress large replica value runs (see
    /// [`EngineConfig::compress_replicas`]).
    pub fn compress_replicas(mut self, on: bool) -> Self {
        self.compress_replicas = on;
        self
    }

    /// Replica size threshold for compression (at least 1; see
    /// [`EngineConfig::compress_min_values`]).
    pub fn compress_min_values(mut self, values: usize) -> Self {
        self.compress_min_values = values.max(1);
        self
    }

    /// Enable RDFS class/property hierarchy answering (§6 of the paper;
    /// see [`EngineConfig::reasoning`]).
    pub fn rdfs_reasoning(mut self, on: bool) -> Self {
        self.reasoning = on;
        self
    }

    /// Starts a [`Loader`] under this configuration: load triples into
    /// it, then [`Loader::finish`] builds the engine.
    pub fn loader(self) -> Loader {
        Loader::new(self, StoreBuilder::new(), Arc::new(EngineMetrics::new()))
    }

    /// Builds an empty, ready engine under this configuration.
    pub fn build(self) -> Parj {
        self.loader().finish()
    }

    /// The persistent worker pool an engine under this configuration
    /// owns, if any.
    pub(crate) fn worker_pool(&self) -> Option<WorkerPool> {
        (self.use_pool && self.threads > 1).then(|| WorkerPool::new(self.threads - 1))
    }
}

/// Per-query overrides of engine configuration: plain data, set through
/// [`crate::QueryRequest`]'s setters or handed over whole with
/// [`crate::QueryRequest::overrides`] — how the benchmark harness sweeps
/// threads and morsel sizes without reloading data.
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
        RunOverrides {
            threads: Some(n),
            ..Self::default()
        }
    }
}

/// One published, immutable version of the query-ready state: a
/// request reads the one current when it was built; a mutation batch
/// clones it (every field is an `Arc` or small) and publishes the
/// changed clone. Store, delta and thresholds stay behind their own
/// `Arc`s so multi-morsel runs hand `'static` clones to pool workers.
#[derive(Clone)]
pub(crate) struct Ready {
    pub(crate) store: Arc<TripleStore>,
    /// Pending mutations since the last full rebuild: per-predicate
    /// sorted add/delete runs plus a dictionary extension, consulted by
    /// probes alongside the CSR replicas. Clean (empty) in every built
    /// engine; a batch changes its own copy via `Arc::make_mut`.
    pub(crate) delta: Arc<DeltaOverlay>,
    stats: Arc<Stats>,
    thresholds: Arc<ThresholdTable>,
    calibration: CalibrationResult,
    pub(crate) hierarchy: Option<Hierarchy>,
    /// Cache stamp: bumped by a batch that changes the RDFS hierarchy,
    /// which can change the answer of any query. Entries stamped with
    /// another generation are never served.
    pub(crate) generation: u64,
    /// Cache stamp per predicate id (absent = 0): a batch bumps exactly
    /// the predicates it changed, so a query's stamp — the sum over the
    /// predicates it reads — moves only when its answer may have. Epochs
    /// only grow, so two versions a query can tell apart never share a
    /// sum.
    pub(crate) epochs: Vec<u64>,
}

impl Ready {
    /// Fresh ready state around a built store under `config`, with a
    /// clean delta: the compression policy, optimizer statistics,
    /// calibration, thresholds and (when reasoning) the hierarchy.
    fn new(config: &EngineConfig, mut store: TripleStore) -> Self {
        // Generator-built and snapshot-loaded stores arrive raw; apply
        // this engine's compression policy (also recording it in the
        // store options, so delta compaction keeps honoring it). Stores
        // built from staging already carry it.
        let min = config.compress_min_values;
        if config.compress_replicas && store.options().compress_min_values != Some(min) {
            store.compress_values(min);
        }
        let stats = Stats::build_with_buckets(&store, config.histogram_buckets);
        let calibration = if config.calibrate {
            calibrate(&store, &config.calibration)
        } else {
            CalibrationResult::paper_defaults()
        };
        let thresholds = Arc::new(ThresholdTable::from_calibration(&store, &calibration));
        let hierarchy = config.reasoning.then(|| Hierarchy::extract(&store));
        let store = Arc::new(store);
        let delta = Arc::new(DeltaOverlay::new(&store));
        let stats = Arc::new(stats);
        Ready {
            store,
            delta,
            stats,
            thresholds,
            calibration,
            hierarchy,
            generation: 0,
            epochs: Vec::new(),
        }
    }

    /// The dictionary lookup/decode surface: base plus delta terms.
    pub(crate) fn dict_view(&self) -> DictView<'_> {
        DictView::with_delta(self.store.dict(), self.delta.dict())
    }

    /// What the executor probes: the delta is threaded in only when
    /// dirty (the clean path is byte-for-byte the pre-delta executor).
    pub(crate) fn exec_source(&self) -> ExecSource<'_> {
        ExecSource {
            store: &self.store,
            delta: (!self.delta.is_clean()).then_some(&self.delta),
            thresholds: &self.thresholds,
        }
    }

    /// Triples visible to queries (base adjusted by the delta).
    pub(crate) fn visible_triples(&self) -> usize {
        self.delta.visible_triples(&self.store)
    }

    /// The deep structural audit of this version: CSR/index invariants,
    /// replica-pair multiset equality, dictionary bijectivity, snapshot
    /// round-trip stability, and — with a pending delta — the merged
    /// view against a from-scratch rebuild.
    pub(crate) fn audit(&self) -> AuditReport {
        let mut report = audit::audit_all(&self.store);
        if !self.delta.is_clean() {
            report.merge(audit::audit_delta(&self.store, &self.delta));
        }
        report
    }

    /// Stages this version's visible triples for a rebuild, folding any
    /// pending mutation delta in: the staged dictionary is the base plus
    /// the delta's new terms (re-encoded in insertion order, which
    /// reproduces identical dense ids), and the staged triples are the
    /// merged visible view (base minus tombstones plus inserts). A
    /// rebuild from this staging is therefore byte-identical to the
    /// store the delta-overlaid probes answered from.
    pub(crate) fn fold(&self) -> StoreBuilder {
        let mut builder = StoreBuilder::new();
        let mut dict = self.store.dict().clone();
        self.delta.dict().fold_into(&mut dict);
        *builder.dict_mut() = dict;
        if self.delta.is_clean() {
            for t in self.store.iter_triples() {
                builder.add_encoded(t);
            }
        } else {
            for t in self.delta.iter_merged_triples(&self.store) {
                builder.add_encoded(t);
            }
        }
        builder
    }
}

/// The PARJ engine: always ready to serve. A [`Loader`] builds it;
/// every method takes `&self` (bar the [`Parj::store`] borrow), so an
/// `Arc<Parj>` is the one handle that many threads query and mutate.
/// See the crate docs for the lifecycle.
pub struct Parj {
    pub(crate) config: EngineConfig,
    /// The published version, behind a leaf lock held only to clone or
    /// swap the `Arc`: requests run on a clone with no engine lock, and
    /// a mutation batch swaps in its successor.
    pub(crate) published: OrderedMutex<Arc<Ready>>,
    /// Serializes mutation batches (held for a whole batch; the snapshot
    /// cell, cache, pool and metrics sit beneath it). Readers never
    /// take it.
    pub(crate) writer: OrderedMutex<()>,
    pub(crate) metrics: Arc<EngineMetrics>,
    /// Plan/result cache. Always present (cheap when unused); probed
    /// only when [`EngineConfig::cache`] is on, with the stamps of the
    /// version a request pinned.
    pub(crate) cache: QueryCache,
    /// Persistent worker pool for morsel dispatch, created once per
    /// engine when [`EngineConfig::use_pool`] is on and more than one
    /// thread is configured. Workers park between queries and are
    /// joined when the engine drops.
    pool: Option<WorkerPool>,
}

// One engine, shared as `Arc<Parj>` by every serving thread.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<Parj>();
};

impl Parj {
    /// The one constructor: `store` becomes the first published
    /// version, under `config`, feeding `metrics` and running on `pool`.
    pub(crate) fn assemble(
        config: EngineConfig,
        metrics: Arc<EngineMetrics>,
        pool: Option<WorkerPool>,
        store: TripleStore,
    ) -> Parj {
        let ready = Arc::new(Ready::new(&config, store));
        let engine = Parj {
            cache: QueryCache::new(config.cache_bytes),
            pool,
            config,
            published: OrderedMutex::new(
                LockLevel::EngineSnapshot,
                "engine.snapshot",
                Arc::clone(&ready),
            ),
            writer: OrderedMutex::new(LockLevel::Engine, "engine.writer", ()),
            metrics,
        };
        engine.publish_store_gauges(&ready);
        // A rebuild folds (or predates) any delta: zero its gauges.
        engine.publish_delta_gauges(&ready);
        engine
    }

    /// Pins the published version.
    pub(crate) fn snapshot(&self) -> Arc<Ready> {
        Arc::clone(&self.published.lock())
    }
}

impl Default for Parj {
    fn default() -> Self {
        EngineConfig::default().build()
    }
}

impl std::fmt::Debug for Parj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Parj")
            .field("config", &self.config)
            .field("triples", &self.snapshot().visible_triples())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error::ParjError;
    use crate::loader::{LoadSource, RdfFormat};
    use crate::result::QueryRunStats;
    use parj_dict::Term;
    use parj_rio::OnParseError;
    use std::time::{Duration, Instant};

    pub(super) const DATA: &str = r#"
<http://e/ProfA> <http://e/teaches> <http://e/Math> .
<http://e/ProfA> <http://e/teaches> <http://e/Physics> .
<http://e/ProfB> <http://e/teaches> <http://e/Chem> .
<http://e/ProfC> <http://e/teaches> <http://e/Lit> .
<http://e/ProfA> <http://e/worksFor> <http://e/U1> .
<http://e/ProfB> <http://e/worksFor> <http://e/U2> .
<http://e/ProfC> <http://e/worksFor> <http://e/U2> .
<http://e/ProfA> <http://e/name> "Alice" .
"#;

    /// An engine under `config` holding the N-Triples `text`.
    pub(crate) fn load(config: EngineConfig, text: &str) -> Parj {
        let mut loader = config.loader();
        loader
            .load(
                LoadSource::Text(text),
                RdfFormat::NTriples,
                OnParseError::Abort,
            )
            .unwrap();
        loader.finish()
    }

    /// `e` rebuilt with the N-Triples `text` added.
    pub(crate) fn reload(e: Parj, text: &str) -> Parj {
        let mut loader = e.into_loader();
        loader
            .load(
                LoadSource::Text(text),
                RdfFormat::NTriples,
                OnParseError::Abort,
            )
            .unwrap();
        loader.finish()
    }

    pub(super) fn engine() -> Parj {
        let e = load(Parj::builder().threads(2), DATA);
        assert_eq!(e.num_triples(), 8);
        e
    }

    /// A run's variables and decoded rows.
    pub(super) struct Decoded {
        pub(super) vars: Vec<String>,
        pub(super) rows: Vec<Vec<Term>>,
    }

    pub(super) fn run_query(e: &Parj, q: &str) -> Result<Decoded, ParjError> {
        let out = e.request(q).run()?;
        Ok(Decoded {
            rows: out.term_rows()?,
            vars: out.vars,
        })
    }

    pub(super) fn run_count(e: &Parj, q: &str) -> Result<(u64, QueryRunStats), ParjError> {
        e.request(q).count_only().run().map(|o| (o.count, o.stats))
    }

    pub(super) fn cached_engine() -> Parj {
        load(Parj::builder().threads(2).cache(true), DATA)
    }

    fn chain() -> Parj {
        load(
            Parj::builder().threads(1),
            "<http://e/a> <http://e/p> <http://e/b> .\n\
             <http://e/b> <http://e/p> <http://e/c> .\n",
        )
    }

    fn count(e: &Parj, q: &str) -> u64 {
        e.request(q).count_only().run().unwrap().count
    }

    #[test]
    fn concurrent_queries() {
        let shared = Arc::new(chain());
        let q = "SELECT ?x ?z WHERE { ?x <http://e/p> ?y . ?y <http://e/p> ?z }";
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&shared);
                let q = q.to_string();
                std::thread::spawn(move || s.request(&q).count_only().run().unwrap().count)
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
    }

    #[test]
    fn interleaved_updates_and_queries() {
        let shared = chain();
        let q = "SELECT ?x WHERE { ?x <http://e/p> ?y }";
        assert_eq!(count(&shared, q), 2);
        shared
            .mutate()
            .insert(
                Term::iri("http://e/c"),
                Term::iri("http://e/p"),
                Term::iri("http://e/a"),
            )
            .run()
            .unwrap();
        assert_eq!(count(&shared, q), 3);
        assert_eq!(shared.num_triples(), 3);
    }

    #[test]
    fn counting_and_auditing_do_not_wait_for_queries() {
        // A three-way star over 8 subjects × 1000 values: 8 · 10⁹ rows,
        // far more than the 3 s deadline that ends the query lets run.
        let mut nt = String::new();
        for s in 0..8 {
            for v in 0..1000 {
                nt.push_str(&format!("<http://e/s{s}> <http://e/p> <http://e/v{v}> .\n"));
            }
        }
        // Threshold 1: the write below compacts the 8000-pair partition.
        let shared = Arc::new(load(
            Parj::builder().threads(1).delta_compaction_threshold(1),
            &nt,
        ));
        let runner = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                shared
                    .request(
                        "SELECT ?a ?b ?c WHERE { ?x <http://e/p> ?a . \
                         ?x <http://e/p> ?b . ?x <http://e/p> ?c }",
                    )
                    .timeout(Duration::from_secs(3))
                    .count_only()
                    .run()
            })
        };
        // Let the query start.
        std::thread::sleep(Duration::from_millis(200));
        let t = Instant::now();
        assert_eq!(shared.num_triples(), 8000);
        assert!(shared.audit().is_clean());
        let waited = t.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "waited {waited:?} behind a query"
        );
        // A compacting write does not wait for the running query...
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let t = Instant::now();
                let out = shared
                    .mutate()
                    .insert(
                        Term::iri("http://e/s0"),
                        Term::iri("http://e/p"),
                        Term::iri("http://e/new"),
                    )
                    .run()
                    .unwrap();
                (out.compactions, t.elapsed())
            })
        };
        // ...and a short query issued meanwhile waits for neither.
        let t = Instant::now();
        assert_eq!(
            count(&shared, "SELECT ?x WHERE { ?x <http://e/p> <http://e/v0> }"),
            8
        );
        let waited = t.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "short query waited {waited:?}"
        );
        let (compactions, wrote) = writer.join().unwrap();
        assert_eq!(compactions, 1);
        assert!(
            wrote < Duration::from_secs(1),
            "write waited {wrote:?} behind a query"
        );
        // A query started after the write returned sees the batch.
        assert_eq!(
            count(
                &shared,
                "SELECT ?x WHERE { ?x <http://e/p> <http://e/new> }"
            ),
            1
        );
        // Saving the version with the write's delta resident waits for
        // no reader either, and captures exactly what queries see.
        assert!(!shared.snapshot().delta.is_clean());
        let dir = std::env::temp_dir().join(format!("parj-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.parj");
        let t = Instant::now();
        shared.save_snapshot(&path).unwrap();
        let saved = t.elapsed();
        assert!(
            saved < Duration::from_secs(1),
            "save waited {saved:?} behind a query"
        );
        let back = Parj::load_snapshot(&path, EngineConfig::default().threads(1)).unwrap();
        assert_eq!(back.num_triples(), shared.num_triples());
        assert_eq!(back.num_triples(), 8001);
        assert!(back.audit().is_clean());
        assert!(shared.audit().is_clean());
        std::fs::remove_dir_all(&dir).ok();
        assert!(!runner.is_finished(), "the long query outlived every check");
        assert!(matches!(
            runner.join().unwrap(),
            Err(ParjError::DeadlineExceeded { .. })
        ));
    }
}
