//! The seven experiment implementations (Tables 2–6, Figures 2–3).
//!
//! Each function builds its dataset, measures, and returns Markdown
//! tables plus a JSON record; the `table*`/`fig*` binaries are thin
//! wrappers. See `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured analysis of each artifact.

use parj_baseline::{BaselineEngine, HashJoinEngine, MergeJoinEngine};
use parj_core::{LoadSource, OnParseError, Parj, ProbeStrategy, RdfFormat, RunOverrides, Term};
use parj_datagen::{lubm, watdiv, NamedQuery};
use serde_json::json;

use crate::report::{fmt_ms, Table};
use crate::setup::{encode_bgp, lubm_engine, watdiv_engine, Args};
use crate::timing::{avg, geomean, measure_ms};

/// Measures PARJ silent-mode execution for one query.
fn parj_ms(engine: &mut Parj, sparql: &str, threads: usize, runs: usize) -> (f64, u64) {
    let mut count = 0;
    let m = measure_ms(runs, || {
        count = engine
            .request(sparql)
            .threads(threads)
            .count_only()
            .run()
            .expect("benchmark query must run")
            .count;
    });
    (m.avg_ms, count)
}

/// Measures a baseline engine on the same query (via encoded patterns).
/// Returns `None` for queries the baselines cannot express.
fn baseline_ms<E: BaselineEngine>(
    engine: &mut Parj,
    e: &E,
    sparql: &str,
    runs: usize,
) -> Option<(f64, u64)> {
    let (patterns, _) = encode_bgp(engine, sparql)?;
    let store = engine.store();
    let mut count = 0;
    let m = measure_ms(runs, || {
        count = e.run_count(store, &patterns);
    });
    Some((m.avg_ms, count))
}

fn push_aggregates(table: &mut Table, columns: &[Vec<f64>]) {
    table.row(
        "**Avg**",
        columns.iter().map(|c| fmt_ms(avg(c))).collect(),
    );
    table.row(
        "**Geomean**",
        columns.iter().map(|c| fmt_ms(geomean(c))).collect(),
    );
}

/// A generic engine-comparison run over a query set: PARJ single- and
/// multi-thread against the merge-join (RDF-3X stand-in) and hash-join
/// (TriAD stand-in) baselines. Returns one table plus raw per-query
/// series, asserting all engines agree on result counts.
fn engine_comparison(
    engine: &mut Parj,
    queries: &[NamedQuery],
    args: &Args,
    title: &str,
    with_groups: bool,
) -> (Table, serde_json::Value) {
    let cols = [
        "PARJ (1T)",
        "MergeJoin (1T)",
        "HashJoin (1T)",
        &format!("PARJ ({}T)", args.threads),
        &format!("HashJoin ({}T)", args.threads),
        "results",
    ];
    let mut table = Table::new(title, &cols.iter().map(|s| &**s).collect::<Vec<_>>());
    let mut json_rows = Vec::new();
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut group_series: std::collections::BTreeMap<String, Vec<Vec<f64>>> = Default::default();

    for q in queries {
        let (t_parj1, n_parj) = parj_ms(engine, &q.sparql, 1, args.runs);
        let (t_parjn, n_parjn) = parj_ms(engine, &q.sparql, args.threads, args.runs);
        assert_eq!(n_parj, n_parjn, "{}: thread count changed results", q.name);
        let merge = baseline_ms(engine, &MergeJoinEngine, &q.sparql, args.runs);
        let hash1 = baseline_ms(engine, &HashJoinEngine::default(), &q.sparql, args.runs);
        let hashn = baseline_ms(
            engine,
            &HashJoinEngine::parallel(args.threads),
            &q.sparql,
            args.runs,
        );
        for (m, label) in [(&merge, "merge"), (&hash1, "hash")] {
            if let Some((_, n)) = m {
                assert_eq!(*n, n_parj, "{}: {label} baseline disagrees on count", q.name);
            }
        }
        let cells = [
            Some((t_parj1, n_parj)),
            merge,
            hash1,
            Some((t_parjn, n_parj)),
            hashn,
        ];
        let mut row = Vec::with_capacity(6);
        for (i, c) in cells.iter().enumerate() {
            match c {
                Some((t, _)) => {
                    series[i].push(*t);
                    if with_groups {
                        group_series
                            .entry(q.group.clone())
                            .or_insert_with(|| vec![Vec::new(); 5])[i]
                            .push(*t);
                    }
                    row.push(fmt_ms(*t));
                }
                None => row.push("—".into()),
            }
        }
        row.push(n_parj.to_string());
        table.row(&q.name, row);
        json_rows.push(json!({
            "query": q.name, "group": q.group, "results": n_parj,
            "parj_1t_ms": t_parj1, "parj_mt_ms": t_parjn,
            "merge_1t_ms": merge.map(|m| m.0),
            "hash_1t_ms": hash1.map(|m| m.0),
            "hash_mt_ms": hashn.map(|m| m.0),
        }));
    }
    if with_groups {
        for (group, cols) in &group_series {
            let mut cells: Vec<String> = cols.iter().map(|c| fmt_ms(avg(c))).collect();
            cells.push(String::new());
            table.row(format!("**{group} Avg**"), cells);
            let mut cells: Vec<String> = cols.iter().map(|c| fmt_ms(geomean(c))).collect();
            cells.push(String::new());
            table.row(format!("**{group} Geomean**"), cells);
        }
    }
    let mut agg_cols = series;
    agg_cols.truncate(5);
    push_aggregates(&mut table, &agg_cols);
    (table, json!(json_rows))
}

/// Table 2: LUBM engine comparison, single- and multi-thread.
pub fn table2(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let mut engine = lubm_engine(args.scale, args.engine_config());
    let triples = engine.num_triples();
    let queries = lubm::queries();
    let (table, rows) = engine_comparison(
        &mut engine,
        &queries,
        args,
        &format!(
            "Table 2 — LUBM (universities={}, {} triples): silent-mode ms",
            args.scale, triples
        ),
        false,
    );

    // The §5.2 silent-vs-full comparison: full result handling decodes
    // every row through the dictionary.
    let mut full = Table::new(
        "Table 2b — silent vs full result handling (PARJ, multi-thread ms)",
        &["silent", "full", "results"],
    );
    let mut full_rows = Vec::new();
    for q in &queries {
        let (t_silent, n) = parj_ms(&mut engine, &q.sparql, args.threads, args.runs);
        let m = measure_ms(args.runs, || {
            engine
                .request(&q.sparql)
                .threads(args.threads)
                .run()
                .expect("benchmark query must run");
        });
        full.row(
            &q.name,
            vec![fmt_ms(t_silent), fmt_ms(m.avg_ms), n.to_string()],
        );
        full_rows.push(json!({
            "query": q.name, "silent_ms": t_silent, "full_ms": m.avg_ms, "results": n
        }));
    }
    (
        vec![table, full],
        json!({
            "experiment": "table2", "dataset": "lubm", "scale": args.scale,
            "triples": triples, "threads": args.threads, "runs": args.runs,
            "rows": rows, "full_result_handling": full_rows,
        }),
    )
}

fn engine_comparison_titled(
    engine: &mut Parj,
    queries: &[NamedQuery],
    args: &Args,
    title: String,
) -> (Table, serde_json::Value) {
    engine_comparison(engine, queries, args, &title, true)
}

/// Table 3: WatDiv basic workload.
pub fn table3(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let mut engine = watdiv_engine(args.scale, args.engine_config());
    let triples = engine.num_triples();
    let queries = watdiv::basic_workload();
    let (table, rows) = engine_comparison_titled(
        &mut engine,
        &queries,
        args,
        format!(
            "Table 3 — WatDiv basic workload (scale={}, {} triples): silent-mode ms",
            args.scale, triples
        ),
    );
    (
        vec![table],
        json!({
            "experiment": "table3", "dataset": "watdiv", "scale": args.scale,
            "triples": triples, "threads": args.threads, "runs": args.runs, "rows": rows,
        }),
    )
}

/// Table 4: WatDiv incremental & mixed linear workloads.
pub fn table4(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let mut engine = watdiv_engine(args.scale, args.engine_config());
    let triples = engine.num_triples();
    let mut queries = Vec::new();
    for k in 1..=3 {
        queries.extend(watdiv::incremental_linear(k));
    }
    for k in 1..=2 {
        queries.extend(watdiv::mixed_linear(k));
    }
    let (table, rows) = engine_comparison_titled(
        &mut engine,
        &queries,
        args,
        format!(
            "Table 4 — WatDiv incremental & mixed linear (scale={}, {} triples): silent-mode ms",
            args.scale, triples
        ),
    );
    (
        vec![table],
        json!({
            "experiment": "table4", "dataset": "watdiv", "scale": args.scale,
            "triples": triples, "threads": args.threads, "runs": args.runs, "rows": rows,
        }),
    )
}

/// Table 5: impact of adaptive processing — the four probe strategies,
/// single-threaded, on both datasets.
pub fn table5(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let strategies = ProbeStrategy::TABLE5;
    let labels: Vec<&str> = strategies.iter().map(|s| s.label()).collect();
    let mut json_rows = Vec::new();

    let engine = lubm_engine(args.scale, args.engine_config());
    let mut table = Table::new(
        format!(
            "Table 5 — impact of adaptive processing, 1 thread (LUBM universities={}, WatDiv scale={}): ms",
            args.scale, args.scale
        ),
        &labels,
    );
    let mut lubm_cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for q in lubm::queries() {
        let mut cells = Vec::new();
        let mut rec = serde_json::Map::new();
        rec.insert("query".into(), json!(q.name));
        for (i, s) in strategies.iter().enumerate() {
            let m = measure_ms(args.runs, || {
                engine
                    .request(&q.sparql)
                    .threads(1)
                    .strategy(*s)
                    .count_only()
                    .run()
                    .expect("benchmark query must run");
            });
            lubm_cols[i].push(m.avg_ms);
            cells.push(fmt_ms(m.avg_ms));
            rec.insert(format!("{}_ms", s.label()), json!(m.avg_ms));
        }
        table.row(&q.name, cells);
        json_rows.push(serde_json::Value::Object(rec));
    }
    push_aggregates(&mut table, &lubm_cols);

    // WatDiv: the paper reports only avg + geomean over the full query
    // mix.
    let wengine = watdiv_engine(args.scale, args.engine_config());
    let mut watdiv_cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for q in watdiv::all_queries() {
        for (i, s) in strategies.iter().enumerate() {
            let m = measure_ms(args.runs, || {
                wengine
                    .request(&q.sparql)
                    .threads(1)
                    .strategy(*s)
                    .count_only()
                    .run()
                    .expect("benchmark query must run");
            });
            watdiv_cols[i].push(m.avg_ms);
        }
    }
    table.row(
        "**WatDiv Avg**",
        watdiv_cols.iter().map(|c| fmt_ms(avg(c))).collect(),
    );
    table.row(
        "**WatDiv Geomean**",
        watdiv_cols.iter().map(|c| fmt_ms(geomean(c))).collect(),
    );

    (
        vec![table],
        json!({
            "experiment": "table5", "lubm_scale": args.scale, "watdiv_scale": args.scale,
            "runs": args.runs, "lubm_rows": json_rows,
            "watdiv_avg_ms": watdiv_cols.iter().map(|c| avg(c)).collect::<Vec<_>>(),
            "watdiv_geomean_ms": watdiv_cols.iter().map(|c| geomean(c)).collect::<Vec<_>>(),
            "strategies": labels,
        }),
    )
}

/// Table 6: adaptive-method decision counts plus the deterministic
/// memory-work counters comparing whole-array binary search with the
/// ID-to-Position index.
pub fn table6(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let engine = lubm_engine(args.scale, args.engine_config());
    let mut table = Table::new(
        format!(
            "Table 6 — searches chosen by the adaptive method and memory-work \
             counters (LUBM universities={}, 1 thread)",
            args.scale
        ),
        &[
            "#Binary",
            "#Sequential",
            "Binary: probe steps",
            "Binary: words",
            "Index: words",
            "Index/Binary words",
        ],
    );
    let mut json_rows = Vec::new();
    for q in lubm::queries() {
        let run = |s| {
            engine
                .request(&q.sparql)
                .threads(1)
                .strategy(s)
                .count_only()
                .run()
                .expect("run")
                .stats
        };
        // Decision counts under the paper's default AdBinary strategy.
        let ad = run(ProbeStrategy::AdaptiveBinary);
        // Memory work under forced binary vs forced index.
        let bin = run(ProbeStrategy::AlwaysBinary);
        let idx = run(ProbeStrategy::AlwaysIndex);
        let bin_words = bin.search.words_touched();
        let idx_words = idx.search.words_touched();
        let ratio = if bin_words > 0 {
            idx_words as f64 / bin_words as f64
        } else {
            1.0
        };
        table.row(
            &q.name,
            vec![
                ad.search.binary_searches.to_string(),
                ad.search.sequential_searches.to_string(),
                bin.search.binary_steps.to_string(),
                bin_words.to_string(),
                idx_words.to_string(),
                format!("{ratio:.2}"),
            ],
        );
        json_rows.push(json!({
            "query": q.name,
            "adaptive_binary_searches": ad.search.binary_searches,
            "adaptive_sequential_searches": ad.search.sequential_searches,
            "binary_run_steps": bin.search.binary_steps,
            "binary_run_words": bin_words,
            "index_run_words": idx_words,
        }));
    }
    // Extension beyond the paper's LUBM-only Table 6: the WatDiv mix
    // exercises the binary arm of the adaptive switch far more (chain
    // hops land on uncorrelated ids), so both decision outcomes are
    // visible.
    let wengine = watdiv_engine(args.scale, args.engine_config());
    let mut wtable = Table::new(
        format!(
            "Table 6b (extension) — adaptive decisions on the WatDiv mix \
             (scale={}, 1 thread)",
            args.scale
        ),
        &["#Binary", "#Sequential", "Binary: words", "Index: words"],
    );
    let mut wjson = Vec::new();
    for q in watdiv::basic_workload() {
        let run = |s| {
            wengine
                .request(&q.sparql)
                .threads(1)
                .strategy(s)
                .count_only()
                .run()
                .expect("run")
                .stats
        };
        let ad = run(ProbeStrategy::AdaptiveBinary);
        let bin = run(ProbeStrategy::AlwaysBinary);
        let idx = run(ProbeStrategy::AlwaysIndex);
        wtable.row(
            &q.name,
            vec![
                ad.search.binary_searches.to_string(),
                ad.search.sequential_searches.to_string(),
                bin.search.words_touched().to_string(),
                idx.search.words_touched().to_string(),
            ],
        );
        wjson.push(json!({
            "query": q.name,
            "adaptive_binary_searches": ad.search.binary_searches,
            "adaptive_sequential_searches": ad.search.sequential_searches,
            "binary_run_words": bin.search.words_touched(),
            "index_run_words": idx.search.words_touched(),
        }));
    }
    (
        vec![table, wtable],
        json!({
            "experiment": "table6", "dataset": "lubm", "scale": args.scale,
            "rows": json_rows, "watdiv_rows": wjson,
        }),
    )
}

/// Figure 2: execution time vs thread count on the LUBM queries (the
/// paper excludes the trivially-selective LUBM4–LUBM6).
pub fn fig2(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let mut engine = lubm_engine(args.scale, args.engine_config());
    let threads = [1usize, 2, 4, 8, 16];
    let labels: Vec<String> = threads.iter().map(|t| format!("{t} threads")).collect();
    let mut table = Table::new(
        format!(
            "Figure 2 — LUBM execution time vs threads (universities={}): ms",
            args.scale
        ),
        &labels.iter().map(|s| &**s).collect::<Vec<_>>(),
    );
    // Wall-clock only shows speedup when the host has that many cores;
    // the load-balance bound `sum(work)/max(work)` measures the shard
    // distribution itself (workers share nothing, so on ideal hardware
    // wall-clock tracks this bound). Both are reported.
    let mut bound_table = Table::new(
        format!(
            "Figure 2b — parallel work-balance speedup bound (universities={}, \
             host cores={})",
            args.scale,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
        &labels.iter().map(|s| &**s).collect::<Vec<_>>(),
    );
    let mut json_rows = Vec::new();
    for q in lubm::queries() {
        if matches!(q.name.as_str(), "LUBM4" | "LUBM5" | "LUBM6") {
            continue; // excluded in the paper's Figure 2
        }
        let mut cells = Vec::new();
        let mut times = Vec::new();
        let mut bounds = Vec::new();
        let mut bound_cells = Vec::new();
        for &t in &threads {
            let (ms, _) = parj_ms(&mut engine, &q.sparql, t, args.runs);
            cells.push(fmt_ms(ms));
            times.push(ms);
            let plans = engine
                .morsel_loads(&q.sparql, &RunOverrides::threads(t))
                .expect("benchmark query must run");
            // Plans run back-to-back; each contributes its own dynamic-
            // scheduling makespan bound max(total/K, max_morsel).
            let mut total_all = 0.0f64;
            let mut makespan = 0.0f64;
            for loads in &plans {
                let total: u64 = loads.iter().sum();
                let max_morsel = loads.iter().copied().max().unwrap_or(0);
                total_all += total as f64;
                makespan += (total as f64 / t as f64).max(max_morsel as f64);
            }
            let bound = if makespan > 0.0 { total_all / makespan } else { 1.0 };
            bounds.push(bound);
            bound_cells.push(format!("{bound:.2}x"));
        }
        table.row(&q.name, cells);
        bound_table.row(&q.name, bound_cells);
        json_rows.push(json!({
            "query": q.name, "threads": threads, "ms": times,
            "speedup_bound": bounds,
        }));
    }
    (
        vec![table, bound_table],
        json!({
            "experiment": "fig2", "dataset": "lubm", "scale": args.scale,
            "runs": args.runs,
            "host_cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
            "rows": json_rows,
        }),
    )
}

/// Figure 3: execution time vs dataset size at full thread count
/// (the paper's ladder is 1280→10240 universities; ours is
/// `scale/8 → scale` in ×2 steps).
pub fn fig3(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let scales: Vec<usize> = {
        let s = args.scale.max(8);
        vec![s / 8, s / 4, s / 2, s]
    };
    let labels: Vec<String> = scales.iter().map(|s| format!("U={s}")).collect();
    let mut table = Table::new(
        format!(
            "Figure 3 — LUBM execution time vs dataset size ({} threads): ms",
            args.threads
        ),
        &labels.iter().map(|s| &**s).collect::<Vec<_>>(),
    );
    // Build all engines first (columns are datasets).
    let mut engines: Vec<Parj> = scales
        .iter()
        .map(|&u| lubm_engine(u, args.engine_config()))
        .collect();
    let mut json_rows = Vec::new();
    for q in lubm::queries() {
        if matches!(q.name.as_str(), "LUBM4" | "LUBM5" | "LUBM6") {
            continue;
        }
        let mut cells = Vec::new();
        let mut times = Vec::new();
        for e in engines.iter_mut() {
            let (ms, _) = parj_ms(e, &q.sparql, args.threads, args.runs);
            cells.push(fmt_ms(ms));
            times.push(ms);
        }
        table.row(&q.name, cells);
        json_rows.push(json!({ "query": q.name, "scales": scales, "ms": times }));
    }
    (
        vec![table],
        json!({
            "experiment": "fig3", "dataset": "lubm", "scales": scales,
            "threads": args.threads, "runs": args.runs, "rows": json_rows,
        }),
    )
}

/// Metrics-recording overhead: the same silent-mode LUBM workload with
/// the observability registry enabled (the default) and disabled
/// (`record_metrics: false`), reporting the relative difference. The
/// registry records with relaxed atomics on the per-query finalize
/// path, so the target envelope is ≤ 2 % on the workload total.
pub fn metrics_overhead(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let mut engine_on = lubm_engine(args.scale, args.engine_config());
    let mut cfg_off = args.engine_config();
    cfg_off.record_metrics = false;
    let mut engine_off = lubm_engine(args.scale, cfg_off);

    let mut table = Table::new(
        format!(
            "Metrics-recording overhead — LUBM U={}, {} threads, silent mode",
            args.scale, args.threads
        ),
        &["metrics on (ms)", "metrics off (ms)", "overhead"],
    );
    let mut json_rows = Vec::new();
    let (mut sum_on, mut sum_off) = (0.0f64, 0.0f64);
    for q in lubm::queries() {
        let (t_on, n_on) = parj_ms(&mut engine_on, &q.sparql, args.threads, args.runs);
        let (t_off, n_off) = parj_ms(&mut engine_off, &q.sparql, args.threads, args.runs);
        assert_eq!(n_on, n_off, "{}: metrics recording changed results", q.name);
        sum_on += t_on;
        sum_off += t_off;
        let pct = if t_off > 0.0 { (t_on / t_off - 1.0) * 100.0 } else { 0.0 };
        table.row(
            &q.name,
            vec![fmt_ms(t_on), fmt_ms(t_off), format!("{pct:+.1}%")],
        );
        json_rows.push(json!({
            "query": q.name, "on_ms": t_on, "off_ms": t_off, "overhead_pct": pct,
        }));
    }
    let agg = if sum_off > 0.0 { (sum_on / sum_off - 1.0) * 100.0 } else { 0.0 };
    table.row(
        "**Workload total**",
        vec![fmt_ms(sum_on), fmt_ms(sum_off), format!("{agg:+.1}%")],
    );
    (
        vec![table],
        json!({
            "experiment": "metrics_overhead", "dataset": "lubm",
            "scale": args.scale, "threads": args.threads, "runs": args.runs,
            "rows": json_rows, "workload_overhead_pct": agg,
        }),
    )
}

/// Runs a 90 %-repeat mix of one query (`repeats` consecutive runs:
/// one cold, the rest repeats) and returns total wall-clock ms plus
/// the (stable) count.
fn repeat_mix_ms(engine: &mut Parj, sparql: &str, threads: usize, repeats: usize) -> (f64, u64) {
    let mut count = 0;
    let t = std::time::Instant::now();
    for _ in 0..repeats {
        count = engine
            .request(sparql)
            .threads(threads)
            .count_only()
            .run()
            .expect("benchmark query must run")
            .count;
    }
    (t.elapsed().as_secs_f64() * 1e3, count)
}

/// Result/plan cache effect on a repeat-heavy workload: each LUBM
/// query runs 10 consecutive times — one cold miss plus nine repeats,
/// i.e. a 90 %-repeat mix — on a cache-enabled engine and on the stock
/// cache-off engine. Reported speedup is off/on wall time; counts are
/// asserted identical so the cache cannot buy speed with wrong
/// answers. Not a paper artifact: the caching layer is an extension,
/// measured here so its headline claim stays reproducible.
pub fn cache_effect(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let mut cfg_on = args.engine_config();
    cfg_on.cache = true;
    let mut engine_on = lubm_engine(args.scale, cfg_on);
    let mut engine_off = lubm_engine(args.scale, args.engine_config());

    // 1 cold + 9 repeats per query = the 90 %-repeat mix.
    const REPEATS: usize = 10;

    let mut table = Table::new(
        format!(
            "Result-cache effect — LUBM U={}, {} threads, {} runs/query (90 % repeats)",
            args.scale, args.threads, REPEATS
        ),
        &["cache off (ms)", "cache on (ms)", "speedup"],
    );
    let mut json_rows = Vec::new();
    let (mut sum_on, mut sum_off) = (0.0f64, 0.0f64);
    for q in lubm::queries() {
        let (t_off, n_off) = repeat_mix_ms(&mut engine_off, &q.sparql, args.threads, REPEATS);
        let (t_on, n_on) = repeat_mix_ms(&mut engine_on, &q.sparql, args.threads, REPEATS);
        assert_eq!(n_on, n_off, "{}: caching changed the answer", q.name);
        sum_on += t_on;
        sum_off += t_off;
        let speedup = if t_on > 0.0 { t_off / t_on } else { 0.0 };
        table.row(
            &q.name,
            vec![fmt_ms(t_off), fmt_ms(t_on), format!("{speedup:.1}x")],
        );
        json_rows.push(json!({
            "query": q.name, "off_ms": t_off, "on_ms": t_on,
            "speedup": speedup, "count": n_on,
        }));
    }
    let workload = if sum_on > 0.0 { sum_off / sum_on } else { 0.0 };
    table.row(
        "**Workload total**",
        vec![fmt_ms(sum_off), fmt_ms(sum_on), format!("{workload:.1}x")],
    );
    (
        vec![table],
        json!({
            "experiment": "cache_effect", "dataset": "lubm",
            "scale": args.scale, "threads": args.threads,
            "repeats_per_query": REPEATS, "repeat_share": 0.9,
            "rows": json_rows, "workload_speedup": workload,
        }),
    )
}

/// Write throughput of the delta store: small `mutate()` batches landing
/// in the per-predicate delta overlay vs the legacy rebuild-per-batch
/// path (re-stage the whole store, then rebuild CSR replicas and
/// statistics), both against the same large LUBM base. The second table
/// measures the read-side cost of a resident delta: a predicate scan
/// through the merged (base ∪ delta) view against the same scan after
/// folding.
pub fn delta(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let delta_engine = lubm_engine(args.scale, args.engine_config());
    let mut rebuild_engine = Some(lubm_engine(args.scale, args.engine_config()));
    let base_triples = delta_engine.num_triples();
    assert_eq!(rebuild_engine.as_ref().map(Parj::num_triples), Some(base_triples));
    let pred = format!("{}emailAddress", lubm::NS);

    // Fresh-subject insert batches; `tag` keeps the two engines' key
    // spaces disjoint so every applied triple is a real insert.
    let batch_terms = |tag: &str, batch: usize, size: usize| -> Vec<(Term, Term, Term)> {
        (0..size)
            .map(|i| {
                (
                    Term::iri(format!("http://delta.example/{tag}/b{batch}/s{i}")),
                    Term::iri(pred.clone()),
                    Term::literal(format!("addr-{batch}-{i}")),
                )
            })
            .collect()
    };
    let batch_nt = |tag: &str, batch: usize, size: usize| -> String {
        (0..size)
            .map(|i| {
                format!(
                    "<http://delta.example/{tag}/b{batch}/s{i}> <{pred}> \"addr-{batch}-{i}\" .\n"
                )
            })
            .collect()
    };

    // Full rebuilds are seconds each at this scale; cap their
    // repetitions so the sweep stays bounded.
    let rebuild_runs = args.runs.clamp(1, 2);

    let mut write_table = Table::new(
        format!(
            "Delta write throughput — mutate() vs rebuild-per-batch (LUBM U={}, {} base triples)",
            args.scale, base_triples
        ),
        &["mutate() ms", "rebuild ms", "speedup", "µs/triple (mutate)"],
    );
    let mut json_rows = Vec::new();
    let mut delta_batches = 0usize;
    let mut rebuild_batches = 0usize;
    let mut delta_expected = base_triples;
    let mut rebuild_expected = base_triples;
    let mut compactions_total = 0u64;
    for batch_size in [10usize, 100, 1000] {
        let mut last_outcome = None;
        let m_delta = measure_ms(args.runs, || {
            let out = delta_engine
                .mutate()
                .insert_all(batch_terms("d", delta_batches, batch_size))
                .run()
                .expect("mutation batch applies");
            assert_eq!(out.inserted as usize, batch_size, "all fresh subjects insert");
            delta_batches += 1;
            compactions_total += out.compactions;
            last_outcome = Some(out);
        });
        let out = last_outcome.expect("at least one batch ran");
        delta_expected += (args.runs.max(1) + 1) * batch_size; // runs + warm-up

        let mut rebuilt_triples = 0;
        let m_rebuild = measure_ms(rebuild_runs, || {
            let nt = batch_nt("r", rebuild_batches, batch_size);
            let rebuilt = reload(rebuild_engine.take().expect("engine"), &nt);
            rebuilt_triples = rebuilt.num_triples();
            rebuild_engine = Some(rebuilt);
            rebuild_batches += 1;
        });

        let speedup = m_rebuild.avg_ms / m_delta.avg_ms.max(1e-6);
        write_table.row(
            format!("batch of {batch_size}"),
            vec![
                fmt_ms(m_delta.avg_ms),
                fmt_ms(m_rebuild.avg_ms),
                format!("{speedup:.0}x"),
                format!("{:.1}", m_delta.avg_ms * 1000.0 / batch_size as f64),
            ],
        );
        json_rows.push(json!({
            "batch_size": batch_size,
            "delta_avg_ms": m_delta.avg_ms, "delta_min_ms": m_delta.min_ms,
            "rebuild_avg_ms": m_rebuild.avg_ms, "rebuild_min_ms": m_rebuild.min_ms,
            "rebuild_runs": rebuild_runs,
            "speedup": speedup,
            "delta_resident_pairs_after": out.delta_resident_pairs,
            "delta_bytes_after": out.delta_bytes,
        }));
        rebuild_expected += (rebuild_runs + 1) * batch_size; // runs + warm-up
        assert_eq!(
            rebuilt_triples, rebuild_expected,
            "rebuild engine sees every staged triple"
        );
    }
    assert_eq!(
        delta_engine.num_triples(),
        delta_expected,
        "merged view sees every mutated triple"
    );

    // Read-side overhead: the same predicate scan with the delta
    // resident, then after folding it into a fresh store build.
    let scan = format!("SELECT ?s ?o WHERE {{ ?s <{pred}> ?o }}");
    let mut resident_count = 0;
    let m_resident = measure_ms(args.runs, || {
        resident_count = delta_engine
            .request(&scan)
            .count_only()
            .run()
            .expect("scan runs")
            .count;
    });
    let delta_engine = reload(delta_engine, "");
    let mut folded_count = 0;
    let m_folded = measure_ms(args.runs, || {
        folded_count = delta_engine
            .request(&scan)
            .count_only()
            .run()
            .expect("scan runs")
            .count;
    });
    assert_eq!(resident_count, folded_count, "folding must not change answers");

    let mut read_table = Table::new(
        format!("Predicate-scan cost with delta resident vs folded ({resident_count} results)"),
        &["scan ms"],
    );
    read_table.row("delta resident", vec![fmt_ms(m_resident.avg_ms)]);
    read_table.row("folded (compacted)", vec![fmt_ms(m_folded.avg_ms)]);

    (
        vec![write_table, read_table],
        json!({
            "experiment": "delta", "dataset": "lubm",
            "scale_universities": args.scale, "base_triples": base_triples,
            "runs": args.runs, "threads": args.threads,
            "hardware_available_parallelism":
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            "rows": json_rows,
            "compactions_total": compactions_total,
            "read_overhead": {
                "scan_results": resident_count,
                "resident_avg_ms": m_resident.avg_ms,
                "folded_avg_ms": m_folded.avg_ms,
            },
        }),
    )
}

/// `engine` rebuilt with the N-Triples `nt` added: its staging re-opened
/// (any delta folded in), the batch loaded, the store built again.
fn reload(engine: Parj, nt: &str) -> Parj {
    let mut loader = engine.into_loader();
    loader
        .load(LoadSource::Text(nt), RdfFormat::NTriples, OnParseError::Abort)
        .expect("batch parses");
    loader.finish()
}
