//! Observation: the per-run recorder, `EXPLAIN ANALYZE` profiles,
//! metrics publication (store and delta gauges, query outcomes) and
//! registry snapshots.

use parj_sync::Arc;

use parj_join::{PhysicalPlan, SearchStats};
use parj_obs::{EngineMetrics, MetricsSnapshot, QueryOutcomeClass, SearchTotals};

use super::{Parj, Ready};
use crate::error::ParjError;

#[cfg(doc)]
use parj_join::WorkerPool;

impl Parj {
    /// Refreshes the memory-footprint gauges from a freshly built
    /// version's store (store size, per-predicate replica bytes,
    /// dictionary sections).
    pub(super) fn publish_store_gauges(&self, ready: &Ready) {
        if !self.config.record_metrics {
            return;
        }
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

    /// Refreshes the mutation-delta residency gauges (uncompacted pairs
    /// and overlay heap bytes) from `ready`'s delta.
    pub(crate) fn publish_delta_gauges(&self, ready: &Ready) {
        if !self.config.record_metrics {
            return;
        }
        self.metrics.set_delta_resident(
            ready.delta.resident_pairs() as u64,
            if ready.delta.is_clean() {
                0
            } else {
                ready.delta.memory_bytes(&ready.store) as u64
            },
        );
    }

    /// Maps a run error onto its metrics outcome class.
    pub(super) fn outcome_class(e: &ParjError) -> QueryOutcomeClass {
        match e {
            ParjError::Cancelled { .. } => QueryOutcomeClass::Cancelled,
            ParjError::DeadlineExceeded { .. } => QueryOutcomeClass::Timeout,
            ParjError::BudgetExceeded { .. } => QueryOutcomeClass::Budget,
            ParjError::WorkerPanicked { .. } => QueryOutcomeClass::Panicked,
            _ => QueryOutcomeClass::Error,
        }
    }

    /// Converts merged worker counters to the registry's totals shape.
    pub(super) fn search_totals(s: &SearchStats) -> SearchTotals {
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

    /// Renders the annotated-plan report of the request API's
    /// `explain(true)` mode.
    pub(super) fn render_annotated(plans: &[PhysicalPlan], profiles: &[CapturedProfile]) -> String {
        use std::fmt::Write;
        let fallback = CapturedProfile::default();
        let mut out = String::new();
        for (pi, plan) in plans.iter().enumerate() {
            if plans.len() > 1 {
                writeln!(out, "-- union branch plan {pi} --").expect("write");
            }
            let prof = profiles.get(pi).unwrap_or(&fallback);
            for (si, line) in plan.explain().lines().enumerate() {
                match si
                    .checked_sub(1)
                    .and_then(|probe| prof.step_search.get(probe))
                {
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
}

/// Per-plan step counters captured from the [`parj_join::ExecRecord`]
/// of a real run for the annotated-plan report.
#[derive(Default)]
pub(super) struct CapturedProfile {
    rows: Vec<u64>,
    step_search: Vec<SearchStats>,
    driver: SearchStats,
}

/// Bridges the executor's once-per-run [`parj_join::Recorder`] callback
/// into the engine: plan-level metrics (probe volume, morsel count,
/// participant imbalance) and, under `explain`, a profile capture per
/// plan.
pub(super) struct RunRecorder {
    pub(super) metrics: Option<Arc<EngineMetrics>>,
    pub(super) profiles: Option<parj_sync::OrderedMutex<Vec<CapturedProfile>>>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{cached_engine, engine, load, run_count, DATA};

    #[test]
    fn request_explain_attaches_annotated_plan() {
        let e = engine();
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
        let profile = union
            .profile
            .as_deref()
            .expect("explain attaches a profile");
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
        let e = engine();
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
        let e = engine();
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
        assert_eq!(
            snap.value("parj_queries_total", &[("outcome", "ok")]),
            Some(1)
        );
        assert_eq!(
            snap.value("parj_queries_total", &[("outcome", "budget")]),
            Some(1)
        );
        assert_eq!(snap.value("parj_queries_inflight", &[]), Some(0));
        assert_eq!(snap.value("parj_store_triples", &[]), Some(8));
        assert_eq!(
            snap.value("parj_load_statements_total", &[("result", "loaded")]),
            Some(8)
        );
        assert!(snap.value("parj_result_rows_total", &[]).unwrap() >= 4);
        // Per-predicate memory gauges carry decoded labels.
        assert!(snap
            .value(
                "parj_store_replica_bytes",
                &[("predicate", "<http://e/teaches>")]
            )
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
        let e = load(Parj::builder().threads(1).record_metrics(false), DATA);
        let (count, _) = run_count(&e, "SELECT ?x WHERE { ?x <http://e/teaches> ?z }").unwrap();
        assert_eq!(count, 4);
        let snap = e.metrics_snapshot();
        assert_eq!(
            snap.value("parj_queries_total", &[("outcome", "ok")]),
            Some(0)
        );
        assert_eq!(snap.value("parj_store_triples", &[]), Some(0));
        assert_eq!(
            snap.value("parj_load_statements_total", &[("result", "loaded")]),
            Some(0)
        );
    }

    #[test]
    fn cache_metrics_feed_the_registry() {
        let e = cached_engine();
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
}
