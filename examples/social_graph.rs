//! Build a small social graph by hand and explore it: path queries,
//! repeated variables, predicate variables, incremental updates, and
//! streaming-style counting — the API surface beyond the benchmark
//! suites.
//!
//! ```sh
//! cargo run --example social_graph
//! ```

use std::sync::Arc;

use parj::{LoadSource, OnParseError, Parj, RdfFormat, Term};

/// Who follows whom, in Turtle: some follows are mutual, and one is a
/// self-loop for the repeated-variable demo.
const FOLLOWS: &str = r#"
@prefix s: <http://social.example/> .
@prefix r: <http://social.example/rel/> .
s:alice r:follows s:bob .
s:bob   r:follows s:alice, s:carol .
s:carol r:follows s:dave .
s:dave  r:follows s:alice .
s:erin  r:follows s:erin, s:alice .   # erin follows themself
"#;

fn person(name: &str) -> Term {
    Term::iri(format!("http://social.example/{name}"))
}

fn rel(name: &str) -> Term {
    Term::iri(format!("http://social.example/rel/{name}"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Bulk-load the follow graph, then build the engine once; one
    // `Arc<Parj>` is the handle every thread shares.
    let mut loader = Parj::builder().threads(2).loader();
    loader.load(
        LoadSource::Text(FOLLOWS),
        RdfFormat::Turtle,
        OnParseError::Abort,
    )?;
    let engine = Arc::new(loader.finish());

    // Messages arrive later, as a mutation batch on the live engine.
    let posts = [
        ("alice", "hello world"),
        ("carol", "RDF is graphs all the way down"),
        ("dave", "adaptive joins are neat"),
    ];
    engine
        .mutate()
        .insert_all(
            posts
                .iter()
                .map(|&(author, text)| (person(author), rel("posted"), Term::literal(text))),
        )
        .run()?;
    println!("graph has {} triples", engine.num_triples());

    // Two-hop reachability: who can alice reach through one friend?
    let res = engine
        .request(
            "PREFIX s: <http://social.example/>
             PREFIX r: <http://social.example/rel/>
             SELECT DISTINCT ?reached WHERE {
                 s:alice r:follows ?mid .
                 ?mid r:follows ?reached .
             }",
        )
        .run()?
        .term_rows()?;
    println!("\nalice's two-hop reach:");
    for row in &res {
        println!("  {}", row[0]);
    }

    // Mutual follows: the repeated-variable triangle ?a → ?b → ?a.
    let res = engine
        .request(
            "PREFIX r: <http://social.example/rel/>
             SELECT ?a ?b WHERE { ?a r:follows ?b . ?b r:follows ?a . }",
        )
        .run()?
        .term_rows()?;
    println!("\nmutual follows (includes erin's self-loop):");
    for row in &res {
        println!("  {} <-> {}", row[0], row[1]);
    }

    // Self-loops specifically: ?x follows ?x.
    let selfloops = engine
        .request(
            "PREFIX r: <http://social.example/rel/>
             SELECT ?x WHERE { ?x r:follows ?x . }",
        )
        .count_only()
        .run()?
        .count;
    println!("\nself-loops: {selfloops}");

    // Predicate variable: everything known about dave, over any
    // predicate (expands to a union over the predicate partitions).
    let facts = engine
        .request(
            "PREFIX s: <http://social.example/>
             SELECT ?o WHERE { s:dave ?p ?o . }",
        )
        .count_only()
        .run()?
        .count;
    println!("facts about dave across all predicates: {facts}");

    // Incremental update from another thread: frank joins and follows
    // everyone. The batch lands in the delta overlay — no store rebuild
    // — and the outcome reports what was applied.
    let writer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            engine
                .mutate()
                .insert_all(
                    ["alice", "bob", "carol", "dave", "erin"]
                        .iter()
                        .map(|&other| (person("frank"), rel("follows"), person(other))),
                )
                .run()
        })
    };
    let outcome = writer.join().expect("writer thread")?;
    println!(
        "\napplied {} inserts across {} predicate(s) in {}us",
        outcome.inserted,
        outcome.predicates_touched,
        outcome.phases.total()
    );
    let count = engine
        .request(
            "PREFIX s: <http://social.example/>
             PREFIX r: <http://social.example/rel/>
             SELECT ?x WHERE { s:frank r:follows ?x . }",
        )
        .count_only()
        .run()?
        .count;
    println!("\nafter frank joined: frank follows {count} people");

    // Influencers: DISTINCT + LIMIT.
    let res = engine
        .request(
            "PREFIX r: <http://social.example/rel/>
             SELECT DISTINCT ?who WHERE { ?someone r:follows ?who . } LIMIT 3",
        )
        .run()?
        .term_rows()?;
    println!(
        "three people with followers: {}",
        res.iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}
