//! Golden tests for the exposition formats: the Prometheus text output
//! must stay parseable by standard scrapers, so its shape is pinned
//! here line-by-line for a registry with known contents.

use parj_obs::{EngineMetrics, QueryOutcomeClass, QueryPhase, SearchTotals};

fn populated() -> EngineMetrics {
    let m = EngineMetrics::new();
    m.record_query(
        QueryOutcomeClass::Ok,
        &[
            (QueryPhase::Parse, 10),
            (QueryPhase::Translate, 5),
            (QueryPhase::Optimize, 7),
            (QueryPhase::Execute, 200),
            (QueryPhase::Decode, 3),
        ],
        225,
        42,
        &SearchTotals {
            sequential: 30,
            binary: 10,
            index: 2,
            sequential_steps: 90,
            binary_steps: 70,
            index_words: 6,
            group_probes: 4,
        },
    );
    m.record_query(
        QueryOutcomeClass::Timeout,
        &[(QueryPhase::Parse, 8), (QueryPhase::Execute, 5_000)],
        5_008,
        0,
        &SearchTotals::default(),
    );
    m.record_plan_exec(1_000, 1_250, 5);
    m.record_load(500, 3, 2_000, 65_536);
    m.set_store_memory(
        500,
        40_960,
        [
            ("http://e/teaches".to_string(), 24_576),
            ("http://e/worksFor".to_string(), 16_384),
        ],
        30_000,
        2_000,
    );
    m
}

#[test]
fn prometheus_exposition_is_pinned() {
    let text = populated().snapshot().to_prometheus();

    // Every family announces itself with HELP and TYPE comments.
    for fam in [
        ("parj_queries_total", "counter"),
        ("parj_queries_inflight", "gauge"),
        ("parj_query_phase_micros_total", "counter"),
        ("parj_query_duration_micros", "histogram"),
        ("parj_query_rows", "histogram"),
        ("parj_result_rows_total", "counter"),
        ("parj_searches_total", "counter"),
        ("parj_search_words_total", "counter"),
        ("parj_group_probes_total", "counter"),
        ("parj_probe_rows_total", "counter"),
        ("parj_shard_imbalance_x1000", "histogram"),
        ("parj_exec_morsels_total", "counter"),
        ("parj_pool_workers", "gauge"),
        ("parj_pool_queue_depth", "gauge"),
        ("parj_pool_jobs_total", "counter"),
        ("parj_pool_helper_joins_total", "counter"),
        ("parj_pool_busy_micros_total", "counter"),
        ("parj_pool_park_micros_total", "counter"),
        ("parj_pool_panics_contained_total", "counter"),
        ("parj_load_statements_total", "counter"),
        ("parj_load_micros_total", "counter"),
        ("parj_load_bytes_total", "counter"),
        ("parj_store_triples", "gauge"),
        ("parj_store_partition_bytes", "gauge"),
        ("parj_store_replica_bytes", "gauge"),
        ("parj_dict_bytes", "gauge"),
    ] {
        assert!(
            text.contains(&format!("# TYPE {} {}", fam.0, fam.1)),
            "missing TYPE line for {}: \n{text}",
            fam.0
        );
    }

    // Exact sample lines for the populated values.
    for line in [
        "parj_queries_total{outcome=\"ok\"} 1",
        "parj_queries_total{outcome=\"timeout\"} 1",
        "parj_queries_total{outcome=\"panicked\"} 0",
        "parj_queries_inflight 0",
        "parj_query_phase_micros_total{phase=\"parse\"} 18",
        "parj_query_phase_micros_total{phase=\"execute\"} 5200",
        "parj_query_duration_micros_bucket{le=\"1000\"} 1",
        "parj_query_duration_micros_bucket{le=\"10000\"} 2",
        "parj_query_duration_micros_bucket{le=\"+Inf\"} 2",
        "parj_query_duration_micros_sum 5233",
        "parj_query_duration_micros_count 2",
        "parj_query_rows_bucket{le=\"100\"} 2",
        "parj_result_rows_total 42",
        "parj_searches_total{kind=\"sequential\"} 30",
        "parj_searches_total{kind=\"binary\"} 10",
        "parj_searches_total{kind=\"index\"} 2",
        "parj_search_words_total{kind=\"sequential\"} 90",
        "parj_group_probes_total 4",
        "parj_probe_rows_total 1000",
        "parj_shard_imbalance_x1000_bucket{le=\"1250\"} 1",
        "parj_exec_morsels_total 5",
        "parj_load_statements_total{result=\"loaded\"} 500",
        "parj_load_statements_total{result=\"skipped\"} 3",
        "parj_load_micros_total 2000",
        "parj_load_bytes_total 65536",
        "parj_store_triples 500",
        "parj_store_partition_bytes 40960",
        "parj_store_replica_bytes{predicate=\"http://e/teaches\"} 24576",
        "parj_store_replica_bytes{predicate=\"http://e/worksFor\"} 16384",
        "parj_dict_bytes{section=\"resources\"} 30000",
        "parj_dict_bytes{section=\"predicates\"} 2000",
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "missing line {line:?} in:\n{text}"
        );
    }
}

#[test]
fn json_exposition_round_trips_key_values() {
    let json = populated().snapshot().to_json();
    assert!(json.starts_with("{\"families\":["));
    assert!(json.ends_with("]}"));
    for frag in [
        "\"name\":\"parj_queries_total\"",
        "\"labels\":{\"outcome\":\"ok\"},\"value\":1",
        "\"kind\":\"histogram\"",
        "{\"le\":null,\"count\":2}",
        "\"labels\":{\"predicate\":\"http://e/teaches\"},\"value\":24576",
    ] {
        assert!(json.contains(frag), "missing {frag:?} in:\n{json}");
    }
    // Braces balance (cheap well-formedness check without a parser).
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes);
}

#[test]
fn label_values_are_escaped() {
    let m = EngineMetrics::new();
    m.set_store_memory(1, 1, [("a\"b\\c\nd".to_string(), 7)], 0, 0);
    let text = m.snapshot().to_prometheus();
    assert!(
        text.contains("parj_store_replica_bytes{predicate=\"a\\\"b\\\\c\\nd\"} 7"),
        "unescaped label in:\n{text}"
    );
    let json = m.snapshot().to_json();
    assert!(json.contains("a\\\"b\\\\c\\nd"));
}

#[test]
fn at_least_twelve_families() {
    assert!(EngineMetrics::new().snapshot().families.len() >= 12);
}
