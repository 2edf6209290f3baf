//! E-commerce workloads over a WatDiv-like graph: the paper's structural
//! diversity test (linear / star / snowflake / complex / chains).
//!
//! Shows how differently shaped BGPs stress the engine, the contrast
//! between anchored and unanchored chain queries (the paper's IL
//! families), and what the optimizer does with each shape.
//!
//! ```sh
//! cargo run --release --example ecommerce_workloads -- [scale]
//! ```

use parj::datagen::watdiv;
use parj::{EngineConfig, Parj};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);

    println!("generating WatDiv-like store at scale {scale}…");
    let cfg = watdiv::WatDivConfig { scale, seed: 99 };
    println!(
        "  {} users, {} products, {} reviews, {} retailers",
        cfg.users(),
        cfg.products(),
        cfg.reviews(),
        cfg.retailers()
    );
    let store = watdiv::generate_store(&cfg);
    println!(
        "  {} triples, {} predicates",
        store.num_triples(),
        store.num_predicates()
    );
    let engine = Parj::from_store(store, EngineConfig::default());

    // The basic workload, grouped like the paper's Table 3.
    println!("\nbasic workload (silent mode):");
    let mut last_group = String::new();
    for q in watdiv::basic_workload() {
        if q.group != last_group {
            println!("-- {} queries --", q.group);
            last_group = q.group.clone();
        }
        let out = engine.request(&q.sparql).count_only().run()?;
        let (count, stats) = (out.count, out.stats);
        println!(
            "  {:<4} {:>9} results {:>9.2} ms  (prepare {:>6.2} ms)",
            q.name,
            count,
            stats.exec_micros as f64 / 1e3,
            stats.prepare_micros as f64 / 1e3,
        );
    }

    // Anchored vs unanchored chains: the IL contrast.
    println!("\nchain queries — anchored (IL-1) vs unanchored (IL-3):");
    println!(
        "{:<9} {:>12} | {:<9} {:>12}",
        "query", "results", "query", "results"
    );
    for (a, b) in watdiv::incremental_linear(1)
        .iter()
        .zip(watdiv::incremental_linear(3).iter())
    {
        let ca = engine.request(&a.sparql).count_only().run()?.count;
        let cb = engine.request(&b.sparql).count_only().run()?.count;
        println!("{:<9} {:>12} | {:<9} {:>12}", a.name, ca, b.name, cb);
    }

    // The star query S1 spends most of its budget in the optimizer at
    // tiny result sizes (paper §5.2.3); show the split.
    let s1 = watdiv::basic_workload()
        .into_iter()
        .find(|q| q.name == "S1")
        .expect("S1 exists");
    let out = engine.request(&s1.sparql).count_only().run()?;
    let (count, stats) = (out.count, out.stats);
    println!(
        "\nS1 (9-pattern star): {count} results; prepare {} µs vs execute {} µs",
        stats.prepare_micros, stats.exec_micros
    );
    println!("S1 plan:\n{}", engine.explain(&s1.sparql)?);

    // Friend-recommendation triangle (C3 in the paper's workload).
    let c3 = watdiv::basic_workload()
        .into_iter()
        .find(|q| q.name == "C3")
        .expect("C3 exists");
    let pairs = engine.request(&c3.sparql).count_only().run()?.count;
    println!("friends who like the same product (C3): {pairs} bindings");
    Ok(())
}
