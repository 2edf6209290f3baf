//! Quickstart: load a few triples, run BGP queries, inspect the plan.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use parj::{Parj, ProbeStrategy};

const DATA: &str = r#"
# The running example of the paper (Section 3, Table 1).
<http://uni.example/ProfessorA> <http://uni.example/teaches>  <http://uni.example/Mathematics> .
<http://uni.example/ProfessorB> <http://uni.example/teaches>  <http://uni.example/Chemistry> .
<http://uni.example/ProfessorC> <http://uni.example/teaches>  <http://uni.example/Literature> .
<http://uni.example/ProfessorA> <http://uni.example/teaches>  <http://uni.example/Physics> .
<http://uni.example/ProfessorA> <http://uni.example/worksFor> <http://uni.example/University1> .
<http://uni.example/ProfessorB> <http://uni.example/worksFor> <http://uni.example/University2> .
<http://uni.example/ProfessorC> <http://uni.example/worksFor> <http://uni.example/University2> .
<http://uni.example/ProfessorA> <http://uni.example/name>     "Alice"@en .
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build an engine: 4 worker threads, the paper's default
    //    adaptive binary/sequential probe strategy.
    let mut engine = Parj::builder()
        .threads(4)
        .strategy(ProbeStrategy::AdaptiveBinary)
        .build();

    // 2. Load data (N-Triples text; files work via load_ntriples_path).
    let n = engine.load_ntriples_str(DATA)?;
    println!("loaded {n} triples ({} distinct)", engine.num_triples());

    // 3. Example 3.1 of the paper: who teaches what, and where do they
    //    work?
    let result = engine
        .request(
            "PREFIX u: <http://uni.example/>
             SELECT ?prof ?course ?employer WHERE {
                 ?prof u:teaches ?course .
                 ?prof u:worksFor ?employer .
             }",
        )
        .run()?;
    println!("\n?prof ?course ?employer:");
    print!("{}", result.to_table()?);

    // 4. Example 3.2: constant object — the optimizer drives the plan
    //    from the selective pattern using the O-S replica. Silent mode
    //    (`count_only`) is the paper's primary measurement;
    //    `explain(true)` attaches an EXPLAIN ANALYZE-style report from
    //    the actual parallel run.
    let query = "PREFIX u: <http://uni.example/>
         SELECT ?prof ?course WHERE {
             ?prof u:teaches ?course .
             ?prof u:worksFor u:University2 .
         }";
    let outcome = engine.request(query).count_only().explain(true).run()?;
    println!(
        "\nsilent mode: {} results in {} µs",
        outcome.count, outcome.stats.exec_micros
    );
    println!("{}", outcome.report());

    // 5. ASK, DISTINCT, LIMIT and literals all work; per-run knobs
    //    (timeout, max_rows, threads) chain on the same builder.
    let exists = engine
        .request("ASK { ?x <http://uni.example/name> \"Alice\"@en }")
        .count_only()
        .run()?
        .count;
    println!("is anyone named Alice? {}", exists == 1);

    // 6. Every run feeds the engine-wide metrics registry.
    let snap = engine.metrics_snapshot();
    println!(
        "queries so far: {:?}; store triples: {:?}",
        snap.value("parj_queries_total", &[("outcome", "ok")]),
        snap.value("parj_store_triples", &[]),
    );

    // 7. Persist and reload.
    let path = std::env::temp_dir().join("parj-quickstart.snapshot");
    engine.save_snapshot(&path)?;
    let mut restored = Parj::load_snapshot(&path, parj::EngineConfig::default())?;
    println!(
        "snapshot at {} restores {} triples",
        path.display(),
        restored.num_triples()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
