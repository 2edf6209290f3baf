//! Ablation studies for PARJ's design choices (beyond the paper's own
//! tables, but directly probing the decisions its Sections 3–4 make):
//!
//! * **A1 — adaptive window**: sweep the calibrated position window
//!   (Algorithm 2's output) and measure the LUBM workload; shows the
//!   sequential/binary trade the calibration navigates and why the
//!   paper's ≈200 default sits on the plateau.
//! * **A2 — ID-to-Position interval**: sweep the §4.2 block interval;
//!   shows the memory/lookup-cost trade against the paper's choice of
//!   480 (ours: 512).
//! * **A3 — shards per thread**: sweep the over-subscription factor of
//!   the shard distribution; shows load balance vs. cursor-restart
//!   overhead (§3's "degree of parallelism depends on the number of
//!   different shards").
//! * **A4 — histogram resolution**: sweep equi-depth bucket counts;
//!   shows the optimizer's sensitivity to statistics quality (§4.3
//!   "estimates based on such histograms may not be accurate").

use std::sync::Arc;

use parj_core::{Parj, RunOverrides};
use parj_datagen::lubm;
use parj_join::{
    execute_count, CalibrationResult, ExecOptions, ExecSource, ProbeStrategy, ThresholdTable,
};
use parj_optimizer::{optimize, Stats};
use parj_store::{SortOrder, StoreBuilder, StoreOptions};
use serde_json::json;

use crate::report::{fmt_ms, Table};
use crate::setup::{encode_bgp, lubm_engine, Args};
use crate::timing::measure_ms;

/// All four ablations; returns the tables and a JSON record.
pub fn ablation(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let mut tables = Vec::new();
    let mut records = serde_json::Map::new();

    // Shared dataset.
    let cfg = lubm::LubmConfig {
        universities: args.scale,
        seed: lubm::LubmConfig::default().seed,
    };
    let queries = lubm::queries();

    // ---- A1: adaptive window sweep -----------------------------------
    {
        let store = Arc::new(lubm::generate_store(&cfg));
        let stats = Stats::build(&store);
        let mut engine_for_encoding = lubm_engine(args.scale, args.engine_config());
        // Optimize each query once (plans are window-independent).
        let plans: Vec<_> = queries
            .iter()
            .filter_map(|q| {
                let (patterns, num_vars) = encode_bgp(&mut engine_for_encoding, &q.sparql)?;
                optimize(&stats, &patterns, num_vars, vec![]).ok()
            })
            .collect();
        let mut t = Table::new(
            format!("Ablation A1 — adaptive window sweep (LUBM U={}, AdBinary, 1 thread)", args.scale),
            &["workload ms", "#sequential", "#binary"],
        );
        let mut rows = Vec::new();
        for window in [0usize, 1, 10, 50, 200, 1000, 10_000] {
            let cal = CalibrationResult {
                window_binary: window,
                window_index: window / 10,
                iterations_binary: 0,
                iterations_index: 0,
            };
            let thresholds = Arc::new(ThresholdTable::from_calibration(&store, &cal));
            let src = ExecSource {
                store: &store,
                delta: None,
                thresholds: &thresholds,
            };
            let opts = ExecOptions::builder()
                .strategy(ProbeStrategy::AdaptiveBinary)
                .build()
                .expect("valid options");
            let mut seq = 0u64;
            let mut bin = 0u64;
            let m = measure_ms(args.runs, || {
                seq = 0;
                bin = 0;
                for plan in &plans {
                    let (_, s) = execute_count(src, plan, &opts, None).expect("runs");
                    seq += s.sequential_searches;
                    bin += s.binary_searches;
                }
            });
            t.row(
                format!("window {window}"),
                vec![fmt_ms(m.avg_ms), seq.to_string(), bin.to_string()],
            );
            rows.push(json!({"window": window, "ms": m.avg_ms, "sequential": seq, "binary": bin}));
        }
        tables.push(t);
        records.insert("window_sweep".into(), json!(rows));
    }

    // ---- A2: ID-to-Position interval sweep ----------------------------
    {
        let mut t = Table::new(
            format!("Ablation A2 — ID-to-Position interval (LUBM U={}, AlwaysIndex, 1 thread)", args.scale),
            &["workload ms", "index MiB"],
        );
        let mut rows = Vec::new();
        for interval in [64usize, 256, 512, 2048, 8192] {
            let mut builder = StoreBuilder::new();
            lubm::generate(&cfg, |s, p, o| {
                builder.add_term_triple(&s, &p, &o);
            });
            let store = Arc::new(builder.build_with(StoreOptions {
                build_idpos: true,
                idpos_interval: interval,
                ..StoreOptions::default()
            }));
            let index_bytes: usize = store
                .partitions()
                .iter()
                .flat_map(|p| {
                    [SortOrder::SO, SortOrder::OS]
                        .map(|o| p.replica(o).idpos().map_or(0, |i| i.memory_bytes()))
                })
                .sum();
            let stats = Stats::build(&store);
            let mut engine_for_encoding = lubm_engine(args.scale, args.engine_config());
            let plans: Vec<_> = queries
                .iter()
                .filter_map(|q| {
                    let (patterns, num_vars) = encode_bgp(&mut engine_for_encoding, &q.sparql)?;
                    optimize(&stats, &patterns, num_vars, vec![]).ok()
                })
                .collect();
            let thresholds = Arc::new(ThresholdTable::from_calibration(
                &store,
                &CalibrationResult::paper_defaults(),
            ));
            let src = ExecSource {
                store: &store,
                delta: None,
                thresholds: &thresholds,
            };
            let opts = ExecOptions::builder()
                .strategy(ProbeStrategy::AlwaysIndex)
                .build()
                .expect("valid options");
            let m = measure_ms(args.runs, || {
                for plan in &plans {
                    execute_count(src, plan, &opts, None).expect("runs");
                }
            });
            let mib = index_bytes as f64 / (1 << 20) as f64;
            t.row(
                format!("interval {interval}"),
                vec![fmt_ms(m.avg_ms), format!("{mib:.2}")],
            );
            rows.push(json!({"interval": interval, "ms": m.avg_ms, "index_bytes": index_bytes}));
        }
        tables.push(t);
        records.insert("idpos_interval".into(), json!(rows));
    }

    // ---- A3: morsel size ------------------------------------------------
    {
        let mut t = Table::new(
            format!(
                "Ablation A3 — morsel size (LUBM U={}, LUBM9, {} threads)",
                args.scale, args.threads
            ),
            &["ms", "speedup bound", "morsels"],
        );
        let lubm9 = &queries[8];
        let mut rows = Vec::new();
        for morsel_size in [1_024usize, 4_096, 16_384, 65_536] {
            let mut engine = Parj::from_store(
                lubm::generate_store(&cfg),
                parj_core::EngineConfig {
                    morsel_size,
                    ..args.engine_config()
                },
            );
            let over = RunOverrides::threads(args.threads).with_morsel_size(morsel_size);
            let mut count = 0;
            let m = measure_ms(args.runs, || {
                count = engine
                    .request(&lubm9.sparql)
                    .threads(args.threads)
                    .count_only()
                    .run()
                    .expect("runs")
                    .count;
            });
            let loads = engine.morsel_loads(&lubm9.sparql, &over).expect("runs");
            let loads = &loads[0];
            let total: u64 = loads.iter().sum();
            let max_morsel = loads.iter().copied().max().unwrap_or(1);
            let bound = total as f64
                / (total as f64 / args.threads as f64).max(max_morsel as f64).max(1.0);
            t.row(
                format!("{morsel_size} keys/morsel"),
                vec![
                    fmt_ms(m.avg_ms),
                    format!("{bound:.2}x"),
                    loads.len().to_string(),
                ],
            );
            rows.push(json!({"morsel_size": morsel_size, "ms": m.avg_ms, "bound": bound}));
        }
        tables.push(t);
        records.insert("morsel_size".into(), json!(rows));
    }

    // ---- A4: histogram resolution --------------------------------------
    {
        let mut t = Table::new(
            format!("Ablation A4 — histogram buckets (LUBM U={}, full workload, 1 thread)", args.scale),
            &["workload ms"],
        );
        let mut rows = Vec::new();
        for buckets in [2usize, 8, 64, 256] {
            let mut engine = Parj::from_store(
                lubm::generate_store(&cfg),
                parj_core::EngineConfig {
                    histogram_buckets: buckets,
                    threads: 1,
                    ..args.engine_config()
                },
            );
            let m = measure_ms(args.runs, || {
                for q in &queries {
                    engine.request(&q.sparql).count_only().run().expect("runs");
                }
            });
            t.row(format!("{buckets} buckets"), vec![fmt_ms(m.avg_ms)]);
            rows.push(json!({"buckets": buckets, "ms": m.avg_ms}));
        }
        tables.push(t);
        records.insert("histogram_buckets".into(), json!(rows));
    }

    (
        tables,
        json!({
            "experiment": "ablation", "dataset": "lubm", "scale": args.scale,
            "runs": args.runs, "threads": args.threads,
            "results": serde_json::Value::Object(records),
        }),
    )
}
