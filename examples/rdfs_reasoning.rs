//! RDFS hierarchy answering — the paper's §6 extension, live.
//!
//! The paper's conclusion sketches query answering over class and
//! property hierarchies "by 'unioning' tables during the pipelined join
//! execution ... without the need to materialize the implications".
//! This example builds a small ontology, shows the same query with and
//! without reasoning, and demonstrates that no extra triples were
//! materialized.
//!
//! ```sh
//! cargo run --example rdfs_reasoning
//! ```

use parj::{Parj, SharedParj};

const DATA: &str = r#"
# Ontology ---------------------------------------------------------------
<http://zoo/Dog>    <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://zoo/Mammal> .
<http://zoo/Cat>    <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://zoo/Mammal> .
<http://zoo/Mammal> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://zoo/Animal> .
<http://zoo/Parrot> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://zoo/Animal> .
<http://zoo/hasPuppy> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://zoo/hasChild> .

# Data --------------------------------------------------------------------
<http://zoo/rex>    <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://zoo/Dog> .
<http://zoo/tom>    <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://zoo/Cat> .
<http://zoo/polly>  <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://zoo/Parrot> .
<http://zoo/whale>  <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://zoo/Mammal> .
<http://zoo/rex>    <http://zoo/hasPuppy> <http://zoo/rexjr> .
<http://zoo/rexjr>  <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://zoo/Dog> .
<http://zoo/tom>    <http://zoo/hasChild> <http://zoo/tomjr> .
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let animals_q = "SELECT ?x WHERE { ?x a <http://zoo/Animal> }";
    let children_q = "SELECT ?p ?c WHERE { ?p <http://zoo/hasChild> ?c }";

    // Plain engine: only direct assertions match.
    let mut plain = Parj::builder().build();
    plain.load_ntriples_str(DATA)?;
    let direct = plain.request(animals_q).count_only().run()?.count;
    println!("without reasoning: {direct} direct Animal instances");
    assert_eq!(direct, 0); // nothing is typed Animal directly

    // Reasoning engine: hierarchy extracted from the same data.
    let mut smart = Parj::builder().rdfs_reasoning(true).build();
    smart.load_ntriples_str(DATA)?;
    smart.finalize();
    println!(
        "store still holds {} triples (nothing materialized)",
        smart.num_triples()
    );
    let animals = smart.request(animals_q).run()?.term_rows()?;
    println!("with reasoning: {} animals:", animals.len());
    for row in &animals {
        println!("  {}", row[0]);
    }
    let children = smart.request(children_q).run()?.term_rows()?;
    println!("\nchild edges (hasPuppy ⊑ hasChild): {}", children.len());
    for row in &children {
        println!("  {} -> {}", row[0], row[1]);
    }

    // The plan is a union of per-subclass pipelines — inspect it.
    println!("\nreasoning plan for the Animal query:\n{}", smart.explain(animals_q)?);

    // SharedParj serves concurrent readers over the finalized store.
    let shared = std::sync::Arc::new(SharedParj::new(smart));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let s = std::sync::Arc::clone(&shared);
            std::thread::spawn(move || {
                s.request("SELECT ?x WHERE { ?x a <http://zoo/Mammal> }")
                    .count_only()
                    .run()
                    .unwrap()
                    .count
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 4); // rex, tom, whale, rexjr
    }
    println!("\n4 concurrent readers agreed: 4 mammals");
    Ok(())
}
