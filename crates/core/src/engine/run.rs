//! Request execution: the one prepare path (parse, translate,
//! canonicalize), option validation, the cache glue, plan dispatch and
//! answer shaping.

use std::time::Instant;

use parj_sync::Arc;

use parj_cache::{CachedResult, PlanEntry, ResultEntry};
use parj_dict::Id;
use parj_join::{
    execute, CollectSink, CountSink, ExecFailure, ExecFailureKind, ExecOptions, PhysicalPlan,
    QueryGuard, RowBatch, SearchStats,
};
use parj_obs::{CacheKind, EngineMetrics, QueryOutcomeClass, QueryPhase};
use parj_optimizer::optimize;
use parj_sparql::parse_query;

use super::observe::RunRecorder;
use super::{EngineConfig, Parj, Ready, RunOverrides};
use crate::error::ParjError;
use crate::fingerprint::{canonicalize_query, query_fingerprint};
use crate::request::{QueryOutcome, RunSpec};
use crate::result::{Answer, CacheStatus, PhaseTimings, QueryRunStats};
use crate::translate::{translate, Translation};

/// The plan text of a query whose constant is absent from the data: its
/// answer is empty and nothing executes.
const EMPTY_PLAN: &str = "<empty: constant absent from data>";

impl Parj {
    /// Builds executor options for one query run and checks them with
    /// [`ExecOptions::validate`] — a zero thread count or morsel size is
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
        let opts = ExecOptions {
            threads: over.threads.unwrap_or(config.threads),
            morsel_size: over.morsel_size.unwrap_or(config.morsel_size),
            strategy: over.strategy.unwrap_or(config.strategy),
            guard,
            recorder,
        };
        opts.validate()
            .map_err(|e| ParjError::InvalidOptions(e.to_string()))?;
        Ok(opts)
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
                    return Err(Self::failure_to_error(
                        *failure, phases, started, search, plans,
                    ));
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

    /// Parses and translates `query` against one version — the one
    /// prepare path, behind [`Parj::request`], [`Parj::explain`] and
    /// [`Parj::morsel_loads`].
    ///
    /// `canonical` also applies the cache's variable/pattern
    /// canonicalization (timed as cache lookup, the work it serves):
    /// requests that use the cache pass `true`, and the introspection
    /// entry points pass [`EngineConfig::cache`], so [`Parj::explain`]
    /// renders exactly the plans the cached request path executes.
    fn prepare(
        ready: &Ready,
        query: &str,
        canonical: bool,
        phases: &mut PhaseTimings,
    ) -> Result<Translation, ParjError> {
        let t = Instant::now();
        let parsed = parse_query(query)?;
        phases.parse_micros = t.elapsed().as_micros() as u64;
        let t = Instant::now();
        let mut translated = translate(&parsed, ready.dict_view(), ready.hierarchy.as_ref())?;
        phases.translate_micros = t.elapsed().as_micros() as u64;
        if let (true, Translation::Run(tq)) = (canonical, &mut translated) {
            let t = Instant::now();
            canonicalize_query(tq);
            phases.cache_lookup_micros = t.elapsed().as_micros() as u64;
        }
        Ok(translated)
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

    /// The per-predicate cache stamp of a translated query on `ready`:
    /// the epoch sum over the distinct concrete predicates it touches.
    fn epoch_stamp(ready: &Ready, tq: &crate::translate::TranslatedQuery) -> u64 {
        let mut preds: Vec<Id> = tq
            .pattern_sets
            .iter()
            .flat_map(|set| set.iter().map(|pat| pat.p))
            .collect();
        preds.sort_unstable();
        preds.dedup();
        preds
            .iter()
            .map(|&p| ready.epochs.get(p as usize).copied().unwrap_or(0))
            .sum()
    }

    /// The execution path behind [`Parj::request`]: runs on the version
    /// `ready` the request pinned, recording lifecycle metrics around
    /// the inner run regardless of how it ends.
    pub(crate) fn run_request(
        &self,
        ready: &Arc<Ready>,
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
        let result = self.run_request_inner(ready, query, spec);
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

    fn run_request_inner(
        &self,
        ready: &Arc<Ready>,
        query: &str,
        spec: &RunSpec,
    ) -> Result<QueryOutcome, ParjError> {
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
            recorder.clone().map(|r| r as Arc<dyn parj_join::Recorder>),
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
        // explicit bypasses also skip it. Probes and inserts carry the
        // stamps of the pinned version, so an answer computed on it is
        // served only to requests that pinned a version with the same
        // stamps, however many batches publish meanwhile.
        let metrics = self.config.record_metrics.then_some(&*self.metrics);
        let budgeted = over.max_rows.or(self.config.max_result_rows).is_some();
        let use_cache = self.config.cache && !(spec.no_cache || spec.explain || budgeted);
        let mut cache_status = if self.config.cache {
            CacheStatus::Bypassed
        } else {
            CacheStatus::Off
        };
        let generation = ready.generation;

        let mut phases = PhaseTimings::default();
        let tq = match Self::prepare(ready, query, use_cache, &mut phases)? {
            Translation::Run(tq) => tq,
            Translation::Empty {
                proj_names,
                limit: _,
            } => {
                // Trivially empty (a constant is absent from the data):
                // nothing to cache and nothing to run.
                let stats = QueryRunStats {
                    prepare_micros: phases.total(),
                    phases,
                    plan: EMPTY_PLAN.into(),
                    cache: cache_status,
                    ..Default::default()
                };
                let empty = CachedResult::Rows(Arc::new(RowBatch::new(proj_names.len())));
                return Ok(QueryOutcome {
                    vars: proj_names,
                    count: 0,
                    stats,
                    profile: spec.explain.then(|| EMPTY_PLAN.to_string()),
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
        // Per-predicate epoch stamp: the sum of the pinned version's
        // epochs over the predicates this query touches. A mutation
        // batch bumps the epochs of exactly the predicates it changed,
        // so entries of disjoint queries keep serving while any entry
        // referencing a mutated predicate goes stale (the sum moved).
        let mut epoch_sum = 0u64;
        if use_cache {
            // `prepare` canonicalized `tq`, which makes the fingerprint
            // stable under variable renaming and pattern reordering; it
            // only does so with caching on, keeping the cache-off path
            // untouched.
            let t = Instant::now();
            epoch_sum = Self::epoch_stamp(ready, &tq);
            let fp = query_fingerprint(&tq);
            let result_key = Self::result_key(&fp, silent, tq.limit, tq.offset);
            let hit = self
                .cache
                .results()
                .lookup(&result_key, generation, epoch_sum);
            if let Some(m) = metrics {
                m.record_cache_lookup(CacheKind::Result, hit.is_some());
            }
            if let Some(entry) = hit {
                phases.cache_lookup_micros += t.elapsed().as_micros() as u64;
                if let Some(m) = metrics {
                    m.record_cache_time_saved(QueryPhase::Execute, entry.exec_micros);
                }
                return Ok(Self::serve_cached(
                    ready,
                    spec.count_only,
                    &tq,
                    entry,
                    phases,
                ));
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
            phases.cache_lookup_micros += t.elapsed().as_micros() as u64;
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
                        self.cache
                            .plans()
                            .insert(fp.clone(), entry, cost, generation, epoch_sum);
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
            let (search, exec_micros) = self.run_plans(
                ready,
                &plans,
                &opts,
                phases,
                CountSink::default,
                |_, sinks| {
                    count += sinks.iter().map(|s| s.count).sum::<u64>();
                },
            )?;
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
            let (search, exec_micros) = self.run_plans(
                ready,
                &plans,
                &opts,
                phases,
                CollectSink::default,
                |idx, sinks| {
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
                },
            )?;
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
            let evicted = self
                .cache
                .results()
                .insert(key, entry, cost, generation, epoch_sum);
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
    fn result_key(fp: &[u8], silent: bool, limit: Option<usize>, offset: Option<usize>) -> Vec<u8> {
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
        ready: &Arc<Ready>,
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
    /// with the version they decode against.
    fn answer(ready: &Arc<Ready>, count_only: bool, value: &CachedResult) -> (u64, Option<Answer>) {
        match value {
            CachedResult::Count(n) => (*n, None),
            CachedResult::Rows(rows) => (
                rows.len() as u64,
                (!count_only).then(|| Answer {
                    rows: Arc::clone(rows),
                    ready: Arc::clone(ready),
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
                dict.decode_resource_ref(id)
                    .expect("every key id pre-validated above")
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
        &self,
        query: &str,
        over: &RunOverrides,
    ) -> Result<Vec<Vec<u64>>, ParjError> {
        let opts = Self::exec_options(&self.config, over, None)?;
        let ready = self.snapshot();
        let Some(plans) = self.plans(&ready, query)? else {
            return Ok(Vec::new());
        };
        plans
            .iter()
            .map(|plan| {
                parj_join::morsel_loads(ready.exec_source(), plan, &opts)
                    .map_err(|e| ParjError::InvalidOptions(e.to_string()))
            })
            .collect()
    }

    /// Renders the optimized plan(s) for a query without executing it.
    pub fn explain(&self, query: &str) -> Result<String, ParjError> {
        Ok(match self.plans(&self.snapshot(), query)? {
            None => EMPTY_PLAN.to_string(),
            Some(plans) => Self::plan_text(&plans),
        })
    }

    /// The plans a request for `query` would run on version `ready`,
    /// or `None` when a constant is absent from the data and nothing
    /// would run.
    fn plans(&self, ready: &Ready, query: &str) -> Result<Option<Vec<PhysicalPlan>>, ParjError> {
        let mut phases = PhaseTimings::default();
        match Self::prepare(ready, query, self.config.cache, &mut phases)? {
            Translation::Empty { .. } => Ok(None),
            Translation::Run(tq) => Self::optimize_sets(ready, &tq).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{cached_engine, engine, load, reload, run_count, run_query, DATA};
    use parj_dict::Term;
    use parj_join::{CancelToken, ProbeStrategy};
    use std::time::Duration;

    #[test]
    fn end_to_end_example_31() {
        let e = engine();
        let res = run_query(
            &e,
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
        let e = engine();
        let (count, stats) = run_count(
            &e,
            "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> <http://e/U2> }",
        )
        .unwrap();
        assert_eq!(count, 2);
        assert!(stats.plan.contains("scan"));
    }

    #[test]
    fn silent_vs_full_agree() {
        let e = engine();
        let q = "SELECT ?x ?y WHERE { ?x <http://e/worksFor> ?y }";
        let (count, _) = run_count(&e, q).unwrap();
        let full = run_query(&e, q).unwrap();
        assert_eq!(count, full.rows.len() as u64);
    }

    #[test]
    fn missing_constant_empty() {
        let e = engine();
        let (count, stats) = run_count(
            &e,
            "SELECT ?x WHERE { ?x <http://e/teaches> <http://e/Nope> }",
        )
        .unwrap();
        assert_eq!(count, 0);
        assert!(stats.plan.contains("empty"));
        let res = run_query(&e, "SELECT ?x WHERE { ?x <http://e/nopred> ?y }").unwrap();
        assert!(res.rows.is_empty());
        assert_eq!(res.vars, vec!["x"]);
    }

    #[test]
    fn distinct_and_limit() {
        let e = engine();
        // Professors teaching anything: 3 distinct, 4 rows raw.
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z }";
        let (raw, _) = run_count(&e, q).unwrap();
        assert_eq!(raw, 4);
        let q = "SELECT DISTINCT ?x WHERE { ?x <http://e/teaches> ?z }";
        let (distinct, _) = run_count(&e, q).unwrap();
        assert_eq!(distinct, 3);
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z } LIMIT 2";
        let (limited, _) = run_count(&e, q).unwrap();
        assert_eq!(limited, 2);
        let rows = e.request(q).run().unwrap().id_rows();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn ask_query() {
        let e = engine();
        let (yes, _) = run_count(
            &e,
            "ASK { <http://e/ProfA> <http://e/worksFor> <http://e/U1> }",
        )
        .unwrap();
        assert_eq!(yes, 1);
        let (no, _) = run_count(
            &e,
            "ASK { <http://e/ProfA> <http://e/worksFor> <http://e/U2> }",
        )
        .unwrap();
        assert_eq!(no, 0);
    }

    #[test]
    fn predicate_variable_union() {
        let e = engine();
        // Everything about ProfA over any predicate: 2 teaches +
        // 1 worksFor + 1 name = 4 triples.
        let (count, _) = run_count(&e, "SELECT ?o WHERE { <http://e/ProfA> ?p ?o }").unwrap();
        assert_eq!(count, 4);
    }

    #[test]
    fn literals_in_queries() {
        let e = engine();
        let (count, _) =
            run_count(&e, r#"SELECT ?x WHERE { ?x <http://e/name> "Alice" }"#).unwrap();
        assert_eq!(count, 1);
        let (count, _) = run_count(&e, r#"SELECT ?x WHERE { ?x <http://e/name> "Bob" }"#).unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn overrides_thread_and_strategy() {
        let e = engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> ?y }";
        let base = run_count(&e, q).unwrap().0;
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
        let e = engine();
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z }";
        // A constant absent from the data never reaches the executor:
        // the options are checked before the query is parsed.
        let absent = "SELECT ?x WHERE { ?x <http://e/teaches> <http://e/Nope> }";
        let zero_morsels = RunOverrides {
            morsel_size: Some(0),
            ..RunOverrides::default()
        };
        let rejected = [
            (
                "thread",
                e.request(q).threads(0).count_only().run().map(|o| o.count),
            ),
            ("morsel", e.request(q).morsel_size(0).run().map(|o| o.count)),
            (
                "thread",
                e.request(absent).threads(0).run().map(|o| o.count),
            ),
            (
                "morsel",
                e.morsel_loads(q, &zero_morsels).map(|l| l.len() as u64),
            ),
            (
                "thread",
                e.morsel_loads(absent, &RunOverrides::threads(0))
                    .map(|l| l.len() as u64),
            ),
        ];
        for (what, got) in rejected {
            match got {
                Err(ParjError::InvalidOptions(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("expected InvalidOptions about {what}, got {other:?}"),
            }
        }
        // The engine is unharmed afterwards.
        assert_eq!(run_count(&e, q).unwrap().0, 4);
    }

    #[test]
    fn explain_without_execution() {
        let e = engine();
        let text = e
            .explain("SELECT ?x WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> <http://e/U2> }")
            .unwrap();
        assert!(text.contains("scan"));
        assert!(text.contains("probe"));
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
        load(Parj::builder().threads(2).rdfs_reasoning(on), ONTOLOGY)
    }

    #[test]
    fn reasoning_subclass_union() {
        let q = "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> }";
        // Without reasoning only the direct assertion matches.
        let plain = reasoning_engine(false);
        assert_eq!(run_count(&plain, q).unwrap().0, 1); // carol
                                                        // With reasoning: alice (GradStudent ⊑ Student ⊑ Person), bob
                                                        // (Prof ⊑ Person), carol — and alice only ONCE although she is
                                                        // typed under two subclasses (entailment dedup).
        let smart = reasoning_engine(true);
        assert_eq!(run_count(&smart, q).unwrap().0, 3);
        let res = run_query(&smart, q).unwrap();
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
        let plain = reasoning_engine(false);
        assert_eq!(run_count(&plain, q).unwrap().0, 1); // bob knows carol
        let smart = reasoning_engine(true);
        // advisor ⊑ knows adds alice→bob.
        assert_eq!(run_count(&smart, q).unwrap().0, 2);
    }

    #[test]
    fn reasoning_matches_materialization_oracle() {
        // Forward-chain the closure by hand, load it into a plain
        // engine, and compare DISTINCT results with the reasoning
        // engine on the original data.
        let materialized = load(Parj::builder().threads(1), ONTOLOGY);
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
        let smart = reasoning_engine(true);
        for q in [
            "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> }",
            "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Student> }",
            "SELECT ?a ?b WHERE { ?a <http://e/knows> ?b }",
            "SELECT ?a ?c WHERE { ?a <http://e/knows> ?b . ?b <http://e/knows> ?c }",
        ] {
            let (expect, _) = run_count(&materialized, q).unwrap();
            let (got, _) = run_count(&smart, q).unwrap();
            assert_eq!(got, expect, "{q}");
        }
    }

    #[test]
    fn reasoning_preserves_limit_and_threads() {
        let smart = reasoning_engine(true);
        let q = "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> } LIMIT 2";
        assert_eq!(run_count(&smart, q).unwrap().0, 2);
        for threads in [1, 4] {
            let q = "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> }";
            assert_eq!(
                smart
                    .request(q)
                    .threads(threads)
                    .count_only()
                    .run()
                    .unwrap()
                    .count,
                3
            );
        }
    }

    #[test]
    fn union_queries() {
        let e = engine();
        // teaches ∪ worksFor: 4 + 3 rows, multiset semantics.
        let q = "SELECT ?x ?y WHERE { \
                 { ?x <http://e/teaches> ?y } UNION { ?x <http://e/worksFor> ?y } }";
        let (count, _) = run_count(&e, q).unwrap();
        assert_eq!(count, 7);
        let res = run_query(&e, q).unwrap();
        assert_eq!(res.rows.len(), 7);

        // Overlapping branches keep duplicates (multiset union)…
        let q = "SELECT ?x WHERE { \
                 { ?x <http://e/teaches> ?z } UNION { ?x <http://e/teaches> ?z } }";
        assert_eq!(run_count(&e, q).unwrap().0, 8);
        // …unless DISTINCT.
        let q = "SELECT DISTINCT ?x WHERE { \
                 { ?x <http://e/teaches> ?z } UNION { ?x <http://e/teaches> ?z } }";
        assert_eq!(run_count(&e, q).unwrap().0, 3);

        // A branch with a missing constant contributes nothing; the
        // other still answers.
        let q = "SELECT ?x WHERE { \
                 { ?x <http://e/teaches> <http://e/Nope> } UNION { ?x <http://e/worksFor> <http://e/U2> } }";
        assert_eq!(run_count(&e, q).unwrap().0, 2);

        // A projected variable unbound in one branch is rejected.
        let q = "SELECT ?y WHERE { \
                 { ?x <http://e/teaches> ?y } UNION { ?x <http://e/worksFor> ?z } }";
        assert!(matches!(run_query(&e, q), Err(ParjError::Unsupported(_))));

        // Joins inside branches work.
        let q = "SELECT ?x ?c WHERE { \
                 { ?x <http://e/teaches> ?c . ?x <http://e/worksFor> <http://e/U1> } \
                 UNION { ?x <http://e/teaches> ?c . ?x <http://e/worksFor> <http://e/U2> } }";
        assert_eq!(run_count(&e, q).unwrap().0, 4);
    }

    #[test]
    fn union_with_reasoning_dedups_per_branch() {
        let smart = reasoning_engine(true);
        // Within one branch alice's double typing (GradStudent+Student)
        // dedups; the identical second branch re-contributes every
        // solution (multiset union).
        let person = "SELECT ?x WHERE { \
            { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> } \
            UNION \
            { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Person> } }";
        assert_eq!(run_count(&smart, person).unwrap().0, 6); // 3 + 3
    }

    #[test]
    fn order_by_and_offset() {
        let e = engine();
        // Professors ordered by IRI ascending.
        let res = run_query(
            &e,
            "SELECT ?x WHERE { ?x <http://e/worksFor> ?u } ORDER BY ?x",
        )
        .unwrap();
        let names: Vec<String> = res.rows.iter().map(|r| r[0].to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 3);

        // DESC reverses.
        let res = run_query(
            &e,
            "SELECT ?x WHERE { ?x <http://e/worksFor> ?u } ORDER BY DESC(?x)",
        )
        .unwrap();
        let desc: Vec<String> = res.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(desc, sorted.iter().rev().cloned().collect::<Vec<_>>());

        // ORDER BY a non-projected variable forces full-width rows.
        let res = run_query(
            &e,
            "SELECT ?x WHERE { ?x <http://e/worksFor> ?u } ORDER BY ?u ?x",
        )
        .unwrap();
        assert_eq!(res.rows.len(), 3);
        assert_eq!(res.vars, vec!["x"]);

        // OFFSET slices after ordering; pagination covers everything.
        let page1 = run_query(
            &e,
            "SELECT ?x WHERE { ?x <http://e/worksFor> ?u } ORDER BY ?x LIMIT 2",
        )
        .unwrap();
        let page2 = run_query(
            &e,
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
            run_count(&e, "SELECT ?x WHERE { ?x <http://e/teaches> ?z } OFFSET 3").unwrap();
        assert_eq!(count, 1); // 4 teaching rows - 3

        // DISTINCT preserves requested order.
        let res = run_query(
            &e,
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
        let e = engine();
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
        let e = load(Parj::builder().threads(2).max_result_rows(1), DATA);
        let q = "SELECT ?x WHERE { ?x <http://e/teaches> ?z }";
        assert!(matches!(
            run_count(&e, q),
            Err(ParjError::BudgetExceeded { .. })
        ));
        // A per-run override lifts the engine-wide cap.
        let count = e.request(q).max_rows(100).count_only().run().unwrap().count;
        assert_eq!(count, 4);
    }

    #[test]
    fn cancelled_token_stops_query_and_resets() {
        let e = engine();
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
        let e = engine();
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
        let e = engine();
        // Each branch alone produces 4 rows; the shared budget of 5
        // must trip on the second branch because rows accumulate
        // across branches of one run.
        let q = "SELECT ?x WHERE { \
                 { ?x <http://e/teaches> ?z } UNION { ?x <http://e/teaches> ?z } }";
        assert_eq!(
            e.request(q).max_rows(8).count_only().run().unwrap().count,
            8
        );
        match e.request(q).max_rows(5).count_only().run() {
            Err(ParjError::BudgetExceeded { rows, .. }) => assert!(rows > 5),
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn sparql_errors_surface() {
        let e = engine();
        assert!(matches!(
            run_query(&e, "SELECT ?x WHERE { OPTIONAL { ?x ?p ?o } }"),
            Err(ParjError::Sparql(_))
        ));
        assert!(matches!(
            run_query(&e, "SELECT ?p WHERE { ?x ?p ?o }"),
            Err(ParjError::Unsupported(_))
        ));
    }

    /// Every count-only run must report exactly the row count of the
    /// materializing run of the same query — across `OFFSET`/`LIMIT`
    /// windows, `DISTINCT`, unions, and zero-arity (`ASK`-style)
    /// bodies.
    #[test]
    fn count_only_matches_materialized_len() {
        let e = engine();
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
        let e = engine();
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
        let e = engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        for _ in 0..2 {
            let out = e.request(q).run().unwrap();
            assert_eq!(out.stats.cache, crate::CacheStatus::Off);
            assert_eq!(out.count, 4);
        }
    }

    #[test]
    fn result_cache_serves_identical_answers() {
        let cold = engine();
        let e = cached_engine();
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
        let e = cached_engine();
        let a = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        let b = "SELECT ?s ?c WHERE { ?s <http://e/teaches> ?c }";
        assert_eq!(
            e.request(a).run().unwrap().stats.cache,
            crate::CacheStatus::Miss
        );
        let out = e.request(b).run().unwrap();
        assert_eq!(out.stats.cache, crate::CacheStatus::ResultHit);
        // Names still come from the *request's* text, not the entry's.
        assert_eq!(out.vars, vec!["s", "c"]);
    }

    #[test]
    fn plan_cache_shares_across_limit_windows() {
        let e = cached_engine();
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
        let e = cached_engine();
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
        let e = engine();
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
        let e = reload(e, "<http://e/Q> <http://e/name> \"Quinn\" .");
        assert_eq!(out.term_rows().unwrap(), before);
        assert_eq!(mid.term_rows().unwrap(), mid_rows);
        assert_eq!(e.request(q).run().unwrap().count, 4);
    }

    #[test]
    fn undecodable_ids_are_internal_errors_not_panics() {
        let e = engine();
        let mut out = e
            .request("SELECT ?x WHERE { ?x <http://e/teaches> ?z }")
            .run()
            .unwrap();
        let ready = e.snapshot();
        out.answer = Some(Answer {
            rows: Arc::new(RowBatch::from_parts(1, vec![Id::MAX - 1])),
            ready,
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
        let e = cached_engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        assert_eq!(e.request(q).run().unwrap().count, 4);
        assert_eq!(
            e.request(q).run().unwrap().stats.cache,
            crate::CacheStatus::ResultHit
        );
        let out = e
            .mutate()
            .insert(
                Term::iri("http://e/ProfD"),
                Term::iri("http://e/teaches"),
                Term::iri("http://e/Art"),
            )
            .run()
            .unwrap();
        assert_eq!(
            out.cache_invalidations, 1,
            "only the touched predicate bumps"
        );
        // The write bumped the epoch of <teaches>: the old entry is
        // stale and the fresh answer reflects the new triple.
        let out = e.request(q).run().unwrap();
        assert_eq!(out.stats.cache, crate::CacheStatus::Miss);
        assert_eq!(out.count, 5);
        assert_eq!(e.request(q).run().unwrap().count, 5);
    }

    #[test]
    fn bypass_budget_and_explain_skip_the_cache() {
        let e = cached_engine();
        let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
        // Explicit bypass: nothing inserted...
        let out = e.request(q).bypass_cache().run().unwrap();
        assert_eq!(out.stats.cache, crate::CacheStatus::Bypassed);
        // ...so the next cached run is still a miss.
        assert_eq!(
            e.request(q).run().unwrap().stats.cache,
            crate::CacheStatus::Miss
        );
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
        let e = cached_engine();
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
    fn cached_report_names_the_hit() {
        let e = cached_engine();
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
