//! The metric catalogue: every name the spine may print, with its
//! unit. `BENCHMARK.json` lists the same names (the smoke test holds
//! the two in step); direction and bounds live there.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with `--trace 0`.
///
/// One *op* is the unit of work a client repeats: a pass over the ten
/// LUBM queries (`lubm_scan`), a pass of 17 HTTP requests
/// (`watdiv_serve`), a `W R R R R` cycle (`mutate_read`), a whole
/// document load (`bulk_load`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("resident_bytes_per_triple", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload does not reach reports 0: no work was done there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // server — moves op_p50_ms / ops_per_s on watdiv_serve only.
    ("server.overhead_p50_us", "us"),
    ("server.serialize_ns_per_row", "ns"),
    ("server.urlencoded_parse_ns", "ns"),
    ("server.shed_ratio", "ratio"),
    ("server.inflight_after", "count"),
    // sparql — op_p50_ms on watdiv_serve.
    ("sparql.parse_p50_us", "us"),
    ("sparql.parse_share", "ratio"),
    // core — op_p50_ms on watdiv_serve; the write side of mutate_read.
    ("core.translate_p50_us", "us"),
    ("core.prepare_share", "ratio"),
    ("core.decode_ns_per_row", "ns"),
    ("core.decode_share", "ratio"),
    ("core.mutate_encode_us", "us"),
    ("core.mutate_apply_us", "us"),
    ("core.mutate_compact_us", "us"),
    ("core.mutate_invalidate_us", "us"),
    // optimizer — op_p50_ms / op_tail_ms on watdiv_serve; setup_s.
    ("optimizer.optimize_p50_us", "us"),
    ("optimizer.optimize_max_us", "us"),
    ("optimizer.stats_build_ms", "ms"),
    // join — ops_per_s / op_tail_ms on lubm_scan and mutate_read.
    ("join.exec_ms_per_pass", "ms"),
    ("join.exec_share", "ratio"),
    ("join.ns_per_search", "ns"),
    ("join.words_touched_per_row", "count"),
    ("join.sequential_share", "ratio"),
    ("join.binary_share", "ratio"),
    ("join.index_share", "ratio"),
    ("join.group_probes_per_pass", "count"),
    ("join.seq_ns_per_probe_gap1", "ns"),
    ("join.seq_ns_per_probe_gap16", "ns"),
    ("join.seq_ns_per_probe_gap256", "ns"),
    ("join.seq_ns_per_probe_gap4096", "ns"),
    ("join.bin_ns_per_probe", "ns"),
    ("join.adaptive_ns_per_probe_gap16", "ns"),
    ("join.adaptive_ns_per_probe_gap4096", "ns"),
    ("join.speedup_2t", "ratio"),
    ("join.makespan_ratio", "ratio"),
    ("join.pool_jobs", "count"),
    ("join.helper_joins", "count"),
    ("join.delta_read_ratio", "ratio"),
    // store — ops_per_s on lubm_scan (decode/contains) and bulk_load
    // (build/pack); resident_bytes_per_triple; compaction on mutate_read.
    ("store.packed_over_raw_pass_ratio", "ratio"),
    ("store.decode_values_per_s", "1/s"),
    ("store.packed_contains_ns", "ns"),
    ("store.raw_contains_ns", "ns"),
    ("store.find_key_ns", "ns"),
    ("store.idpos_lookup_ns", "ns"),
    ("store.build_ms", "ms"),
    ("store.build_share", "ratio"),
    ("store.compress_ms", "ms"),
    ("store.value_bytes_per_triple", "bytes"),
    ("store.total_bytes_per_triple", "bytes"),
    ("store.compressed_replicas", "count"),
    ("store.merge_ns_per_pair", "ns"),
    ("store.compactions", "count"),
    ("store.compact_ms_total", "ms"),
    ("store.delta_resident_pairs_max", "count"),
    ("store.delta_bytes_per_pair", "bytes"),
    // dict — ops_per_s on bulk_load (encode); op_p50_ms on watdiv_serve.
    ("dict.encode_ns_per_term", "ns"),
    ("dict.encode_share", "ratio"),
    ("dict.lookup_ns_per_term", "ns"),
    ("dict.decode_ns_per_term", "ns"),
    ("dict.bytes_per_term", "bytes"),
    // rio — ops_per_s on bulk_load only.
    ("rio.parse_ns_per_triple", "ns"),
    ("rio.parse_mb_per_s", "MB/s"),
    ("rio.parse_share", "ratio"),
    // cache — off by default, so measured only in a traced replay.
    ("cache.result_hit_ratio", "ratio"),
    ("cache.result_hit_p50_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.plan_hit_saving_us", "us"),
    // obs / sync — should move nothing.
    ("obs.record_overhead_pct", "%"),
    ("obs.snapshot_us", "us"),
    ("sync.lock_wait_us_total", "us"),
    // Per-op-type views the end-to-end list folds into `op_*`.
    ("load.triples_per_s", "1/s"),
    ("mutate.write_p50_ms", "ms"),
    ("mutate.write_tail_ms", "ms"),
    ("mutate.read_p50_ms", "ms"),
    // The trace itself.
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
];

/// Values gathered during one run, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// `(name, unit, value)` for every catalogue entry, in catalogue
    /// order. Per-layer entries nobody set are 0; a missing end-to-end
    /// value is a harness bug.
    pub fn listed(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.0.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                (name, unit, value)
            })
            .collect()
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn unset_layers_read_zero() {
        let mut m = MetricSet::default();
        m.set("rio.parse_share", 0.5);
        let listed = m.listed(true);
        assert_eq!(listed.len(), PER_LAYER.len());
        assert!(listed.contains(&("rio.parse_share", "ratio", 0.5)));
        assert!(listed.contains(&("join.exec_share", "ratio", 0.0)));
    }
}
