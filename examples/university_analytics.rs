//! University analytics over a generated LUBM-like graph: the paper's
//! primary workload, end to end.
//!
//! Generates a configurable number of universities, runs the ten
//! benchmark queries, and dissects one of them: plan, adaptive-search
//! decisions, thread-count sweep, silent vs full result handling.
//!
//! ```sh
//! cargo run --release --example university_analytics -- [universities]
//! ```

use parj::datagen::lubm;
use parj::{EngineConfig, Parj, ProbeStrategy, RunOverrides};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let universities: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);

    println!("generating {universities} universities…");
    let store = lubm::generate_store(&lubm::LubmConfig {
        universities,
        seed: 7,
    });
    println!(
        "{} triples, {} predicates, {} resources, {:.1} MiB partitions + {:.1} MiB dictionary",
        store.num_triples(),
        store.num_predicates(),
        store.dict().num_resources(),
        store.partitions_memory_bytes() as f64 / (1 << 20) as f64,
        store.dict().memory_bytes() as f64 / (1 << 20) as f64,
    );
    let engine = Parj::from_store(store, EngineConfig::default());

    // Run the whole benchmark suite in silent mode.
    println!(
        "\n{:<8} {:>10} {:>10} {:>12} {:>12}",
        "query", "results", "ms", "#sequential", "#binary"
    );
    for q in lubm::queries() {
        let out = engine.request(&q.sparql).count_only().run()?;
        let (count, stats) = (out.count, out.stats);
        println!(
            "{:<8} {:>10} {:>10.2} {:>12} {:>12}",
            q.name,
            count,
            stats.exec_micros as f64 / 1e3,
            stats.search.sequential_searches,
            stats.search.binary_searches,
        );
    }

    // Deep dive: the advisor triangle (LUBM9), the heaviest query.
    let lubm9 = lubm::queries().into_iter().nth(8).expect("LUBM9");
    println!("\nLUBM9 plan:\n{}", engine.explain(&lubm9.sparql)?);

    println!("\nLUBM9 under the four probe strategies (1 thread):");
    for strategy in ProbeStrategy::TABLE5 {
        let stats = engine
            .request(&lubm9.sparql)
            .threads(1)
            .strategy(strategy)
            .count_only()
            .run()?
            .stats;
        println!(
            "  {:<10} {:>8.2} ms, words touched: {}",
            strategy.label(),
            stats.exec_micros as f64 / 1e3,
            stats.search.words_touched()
        );
    }

    println!("\nLUBM9 morsel balance (speedup bound by thread count):");
    for threads in [1usize, 2, 4, 8, 16] {
        let plans = engine.morsel_loads(&lubm9.sparql, &RunOverrides::threads(threads))?;
        let loads = &plans[0];
        let total: u64 = loads.iter().sum();
        let max_morsel = loads.iter().copied().max().unwrap_or(1);
        let bound = total as f64 / (total as f64 / threads as f64).max(max_morsel as f64);
        println!(
            "  {threads:>2} threads: {bound:.2}x over {} morsels",
            loads.len()
        );
    }

    // Full result handling: decode the selective star query's rows.
    let lubm4 = lubm::queries().into_iter().nth(3).expect("LUBM4");
    let full = engine.request(&lubm4.sparql).run()?;
    let rows = full.term_rows()?;
    println!(
        "\nLUBM4 (faculty of u0/d0): {} people; first row:",
        rows.len()
    );
    if let Some(row) = rows.first() {
        for (var, term) in full.vars.iter().zip(row) {
            println!("  ?{var} = {term}");
        }
    }
    Ok(())
}
