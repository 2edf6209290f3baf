//! Build a small social graph by hand and explore it: path queries,
//! repeated variables, predicate variables, incremental updates, and
//! streaming-style counting — the API surface beyond the benchmark
//! suites.
//!
//! ```sh
//! cargo run --example social_graph
//! ```

use parj::{Parj, Term};

fn person(name: &str) -> Term {
    Term::iri(format!("http://social.example/{name}"))
}

fn rel(name: &str) -> Term {
    Term::iri(format!("http://social.example/rel/{name}"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut engine = Parj::builder().threads(2).build();

    // Friendships (some mutual, one self-loop for the repeated-variable
    // demo) and messages.
    let friendships = [
        ("alice", "bob"),
        ("bob", "alice"),
        ("bob", "carol"),
        ("carol", "dave"),
        ("dave", "alice"),
        ("erin", "erin"), // erin follows themself
        ("erin", "alice"),
    ];
    let posts = [
        ("alice", "hello world"),
        ("carol", "RDF is graphs all the way down"),
        ("dave", "adaptive joins are neat"),
    ];
    engine
        .mutate()
        .insert_all(
            friendships
                .iter()
                .map(|&(a, b)| (person(a), rel("follows"), person(b))),
        )
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

    // Incremental update: frank joins and follows everyone. The batch
    // lands in the delta overlay — no store rebuild — and the outcome
    // reports what was applied.
    let outcome = engine
        .mutate()
        .insert_all(
            ["alice", "bob", "carol", "dave", "erin"]
                .iter()
                .map(|&other| (person("frank"), rel("follows"), person(other))),
        )
        .run()?;
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
