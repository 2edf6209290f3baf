//! # parj-bench — the experiment harness
//!
//! One binary per paper artifact regenerates the corresponding table or
//! figure of the PARJ paper (Bilidas & Koubarakis, EDBT 2019):
//!
//! | binary | artifact |
//! |---|---|
//! | `table2` | Table 2 — LUBM, single- and multi-thread engine comparison |
//! | `table3` | Table 3 — WatDiv basic workload (L/S/F/C) |
//! | `table4` | Table 4 — WatDiv incremental & mixed linear workloads |
//! | `table5` | Table 5 — impact of adaptive processing (Binary/AdBinary/Index/AdIndex) |
//! | `table6` | Table 6 — search counts and memory-work counters, binary vs index |
//! | `fig2`   | Figure 2 — LUBM execution time vs thread count |
//! | `fig3`   | Figure 3 — execution time vs dataset size |
//! | `delta` | write throughput: `mutate()` delta batches vs rebuild-per-batch (not a paper artifact) |
//! | `metrics_overhead` | observability-registry recording cost, on vs off (not a paper artifact) |
//! | `serve` | closed-loop HTTP serving: qps/p50/p99 vs client count + overload (not a paper artifact) |
//! | `locks` | ordered-lock wrapper overhead guardrail + per-level lock-wait profile (not a paper artifact) |
//! | `run_all`| everything above, with outputs under `results/` |
//!
//! Every binary accepts `--scale N` (dataset size), `--runs N`
//! (repetitions per query; the paper uses 10 and reports the average),
//! `--threads N` (multi-thread column width) and `--out DIR` (defaults
//! to `results/`). Outputs are a Markdown table on stdout plus
//! `DIR/<artifact>.md` and machine-readable `DIR/<artifact>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod experiments;
pub mod locks;
pub mod report;
pub mod serve;
pub mod setup;
pub mod timing;

pub use report::{write_outputs, Table};
pub use setup::{encode_bgp, lubm_engine, watdiv_engine, Args};
pub use timing::{avg, geomean, measure_ms, Measurement};

/// Per-experiment default dataset scale, balancing fidelity against a
/// few-minute total runtime for `run_all` (override with `--scale`).
pub fn default_scale(experiment: &str) -> usize {
    match experiment {
        // LUBM scales are university counts (~17 k triples each).
        "table2" => 10,
        "table5" | "table6" => 6,
        "fig2" => 10,
        "fig3" => 16, // ladder 2, 4, 8, 16
        "ablation" => 4,
        // Write batches against a >1 M-triple base (66 universities ≈
        // 1.0 M triples); rebuild-per-batch dominates the runtime, so
        // the sweep caps its repetitions.
        "delta" => 66,
        "metrics_overhead" => 6,
        "cache_effect" => 6,
        // HTTP closed-loop serving sweep: a small store keeps the
        // per-request work bounded while clients stack up.
        "serve" => 4,
        // Lock-overhead guardrail: the microbench dominates; the
        // closed-loop phase only needs enough data to exercise the
        // pool locks.
        "locks" => 4,
        // WatDiv scales are ~2.5 k-triple units.
        "table3" => 40,
        "table4" => 20,
        _ => 10,
    }
}
