//! WatDiv-like e-commerce/social data generator and the basic,
//! incremental-linear and mixed-linear workloads.
//!
//! The Waterloo SPARQL Diversity Test Suite stresses engines with
//! *structurally diverse* queries over a store mixing an e-commerce
//! domain (products, retailers, reviews) with a social one (users,
//! follows/friendOf). The paper runs its **basic workload** (linear
//! L1–L5, star S1–S7, snowflake F1–F5, complex C1–C3, Table 3) and the
//! **incremental linear** (IL-1/2/3) and **mixed linear** (ML-1/2)
//! extensions with path lengths 5–10 (Table 4).
//!
//! The generator reproduces the selectivity classes that make those
//! workloads interesting:
//!
//! * IL-1/IL-2 chains are **anchored at a constant**, so results stay
//!   small no matter the length;
//! * IL-3 chains are **unanchored `friendOf` paths**, whose result count
//!   grows geometrically with length — the workload family where the
//!   paper's TriAD comparison blows up (out-of-memory at IL-3-8);
//! * ML variants append an attribute pattern to the path's endpoint,
//!   with ML-1 anchored (very selective) and ML-2 unanchored (medium).

use parj_dict::Term;
use parj_store::{StoreBuilder, TripleStore};

use crate::{NamedQuery, SplitMix64};

/// Namespace prefix of generated IRIs.
pub const NS: &str = "http://watdiv/";
/// `rdf:type`.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
/// `xsd:integer`, the datatype of `rating`/`age`/`price` literals (bare
/// integers in SPARQL parse to the same form).
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";

/// Number of genres (fixed, so `genre0..genre9` are always valid query
/// constants).
pub const GENRES: usize = 10;
/// Number of cities.
pub const CITIES: usize = 20;
/// Number of countries.
pub const COUNTRIES: usize = 5;

/// Generator configuration. One scale unit ≈ 100 users, 50 products,
/// 150 reviews, 2 retailers ≈ 2.5 k triples.
#[derive(Debug, Clone, Copy)]
pub struct WatDivConfig {
    /// Scale factor (the paper runs WatDiv scale 1000 ≈ 110 M triples;
    /// defaults here are tens).
    pub scale: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for WatDivConfig {
    fn default() -> Self {
        Self {
            scale: 10,
            seed: 0x5741_5444,
        }
    }
}

impl WatDivConfig {
    /// Users generated at this scale.
    pub fn users(&self) -> usize {
        100 * self.scale.max(1)
    }

    /// Products generated at this scale.
    pub fn products(&self) -> usize {
        50 * self.scale.max(1)
    }

    /// Reviews generated at this scale.
    pub fn reviews(&self) -> usize {
        150 * self.scale.max(1)
    }

    /// Retailers generated at this scale.
    pub fn retailers(&self) -> usize {
        2 * self.scale.max(1) + 1
    }
}

fn iri(path: String) -> Term {
    Term::iri(format!("{NS}{path}"))
}

fn pred(name: &str) -> Term {
    Term::iri(format!("{NS}{name}"))
}

fn int_lit(v: usize) -> Term {
    Term::typed_literal(v.to_string(), XSD_INTEGER)
}

/// Generates all triples through `emit`.
pub fn generate<F: FnMut(Term, Term, Term)>(cfg: &WatDivConfig, mut emit: F) {
    let rdf_type = Term::iri(RDF_TYPE);
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5741_5444); // "WATD"
    let users = cfg.users();
    let products = cfg.products();
    let reviews = cfg.reviews();
    let retailers = cfg.retailers();

    let user = |i: usize| iri(format!("user{i}"));
    let product = |i: usize| iri(format!("product{i}"));
    let review = |i: usize| iri(format!("review{i}"));
    let retailer = |i: usize| iri(format!("retailer{i}"));
    let genre = |i: usize| iri(format!("genre{i}"));
    let city = |i: usize| iri(format!("city{i}"));
    let country = |i: usize| iri(format!("country{i}"));

    // Geography backbone.
    for c in 0..CITIES {
        emit(city(c), rdf_type.clone(), iri("City".into()));
        emit(city(c), pred("cityIn"), country(c % COUNTRIES));
    }
    for c in 0..COUNTRIES {
        emit(country(c), rdf_type.clone(), iri("Country".into()));
    }
    for g in 0..GENRES {
        emit(genre(g), rdf_type.clone(), iri("Genre".into()));
    }

    // Zipf-ish popularity: user i follows mostly low-index users;
    // product popularity likewise. A cheap skew: pick two uniforms and
    // take the min.
    let skewed = |n: usize, rng: &mut SplitMix64| -> usize {
        let a = rng.below(n);
        let b = rng.below(n);
        a.min(b)
    };

    // Users.
    for i in 0..users {
        let u = user(i);
        emit(u.clone(), rdf_type.clone(), iri("User".into()));
        emit(
            u.clone(),
            pred("familyName"),
            Term::literal(format!("Family{}", i % 977)),
        );
        emit(u.clone(), pred("age"), int_lit(18 + rng.below(60)));
        emit(
            u.clone(),
            pred("gender"),
            Term::literal(if rng.below(2) == 0 { "female" } else { "male" }.to_string()),
        );
        emit(u.clone(), pred("locatedIn"), city(rng.below(CITIES)));
        // follows: 2-5 edges, popularity-skewed.
        let n_follows = rng.range(2, 5);
        for _ in 0..n_follows {
            let t = skewed(users, &mut rng);
            if t != i {
                emit(u.clone(), pred("follows"), user(t));
            }
        }
        // friendOf: 1-2 edges (average ≈ 1.5 keeps unanchored IL-3
        // chains geometric but tractable).
        let n_friends = rng.range(1, 2);
        for _ in 0..n_friends {
            let t = rng.below(users);
            if t != i {
                emit(u.clone(), pred("friendOf"), user(t));
            }
        }
        // likes: 2-5 products, skewed.
        let n_likes = rng.range(2, 5);
        for _ in 0..n_likes {
            emit(
                u.clone(),
                pred("likes"),
                product(skewed(products, &mut rng)),
            );
        }
        // purchases: 0-2.
        for _ in 0..rng.below(3) {
            emit(
                u.clone(),
                pred("purchases"),
                product(skewed(products, &mut rng)),
            );
        }
    }

    // Products.
    for i in 0..products {
        let p = product(i);
        emit(p.clone(), rdf_type.clone(), iri("Product".into()));
        emit(
            p.clone(),
            pred("title"),
            Term::literal(format!("Product number {i}")),
        );
        emit(
            p.clone(),
            pred("caption"),
            Term::literal(format!("The finest product {i}")),
        );
        emit(p.clone(), pred("price"), int_lit(1 + rng.below(1000)));
        let n_genres = rng.range(1, 2);
        for g in 0..n_genres {
            emit(
                p.clone(),
                pred("genre"),
                genre((rng.below(GENRES) + g) % GENRES),
            );
        }
    }

    // Reviews: review i is about a skewed product by a skewed user.
    for i in 0..reviews {
        let r = review(i);
        let p = skewed(products, &mut rng);
        emit(r.clone(), rdf_type.clone(), iri("Review".into()));
        emit(product(p), pred("hasReview"), r.clone());
        emit(r.clone(), pred("reviewer"), user(skewed(users, &mut rng)));
        emit(r.clone(), pred("rating"), int_lit(1 + rng.below(5)));
        emit(
            r.clone(),
            pred("reviewText"),
            Term::literal(format!("Review text {i}")),
        );
    }

    // Retailers.
    for i in 0..retailers {
        let rt = retailer(i);
        emit(rt.clone(), rdf_type.clone(), iri("Retailer".into()));
        emit(
            rt.clone(),
            pred("homepage"),
            Term::literal(format!("http://shop{i}.example.com")),
        );
        let n_offers = rng.range(3, 8);
        for _ in 0..n_offers {
            emit(rt.clone(), pred("offers"), product(rng.below(products)));
        }
    }
}

/// Generates into a fresh [`StoreBuilder`].
pub fn generate_builder(cfg: &WatDivConfig) -> StoreBuilder {
    let mut b = StoreBuilder::new();
    generate(cfg, |s, p, o| {
        b.add_term_triple(&s, &p, &o);
    });
    b
}

/// Generates and builds a complete store.
pub fn generate_store(cfg: &WatDivConfig) -> TripleStore {
    generate_builder(cfg).build()
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

fn q(name: impl Into<String>, group: &str, body: String) -> NamedQuery {
    NamedQuery::new(name, group, body)
}

/// The basic workload: L1–L5, S1–S7, F1–F5, C1–C3 (Table 3's query mix).
pub fn basic_workload() -> Vec<NamedQuery> {
    let t = RDF_TYPE;
    vec![
        // ----- linear -----
        q("L1", "L", format!(
            "SELECT ?u ?p WHERE {{ ?u <{NS}likes> ?p . ?p <{NS}genre> <{NS}genre0> . }}")),
        q("L2", "L", format!(
            "SELECT ?a ?p WHERE {{ <{NS}user0> <{NS}follows> ?a . ?a <{NS}likes> ?p . }}")),
        q("L3", "L", format!(
            "SELECT ?p ?r WHERE {{ ?p <{NS}hasReview> ?r . ?r <{NS}reviewer> <{NS}user1> . }}")),
        q("L4", "L", format!(
            "SELECT ?r ?u WHERE {{ ?r <{NS}rating> 5 . ?r <{NS}reviewer> ?u . ?u <{NS}locatedIn> <{NS}city0> . }}")),
        q("L5", "L", format!(
            "SELECT ?u ?c WHERE {{ ?u <{NS}locatedIn> ?c . ?c <{NS}cityIn> <{NS}country0> . ?u <{NS}age> 25 . }}")),
        // ----- star -----
        q("S1", "S", format!(
            "SELECT ?p ?g ?ti ?pr ?ca ?r ?rt ?u ?gd WHERE {{ \
             <{NS}retailer0> <{NS}offers> ?p . ?p <{NS}genre> ?g . ?p <{NS}title> ?ti . \
             ?p <{NS}price> ?pr . ?p <{NS}caption> ?ca . ?p <{NS}hasReview> ?r . \
             ?r <{NS}rating> ?rt . ?r <{NS}reviewer> ?u . ?u <{NS}gender> ?gd . }}")),
        q("S2", "S", format!(
            "SELECT ?u ?a ?f WHERE {{ ?u <{NS}locatedIn> <{NS}city1> . ?u <{NS}age> ?a . ?u <{NS}familyName> ?f . }}")),
        q("S3", "S", format!(
            "SELECT ?p ?pr ?ti WHERE {{ ?p <{NS}genre> <{NS}genre1> . ?p <{NS}price> ?pr . ?p <{NS}title> ?ti . }}")),
        q("S4", "S", format!(
            "SELECT ?u ?c ?f WHERE {{ ?u <{NS}age> 30 . ?u <{NS}locatedIn> ?c . ?u <{NS}familyName> ?f . }}")),
        q("S5", "S", format!(
            "SELECT ?p ?ca WHERE {{ ?p <{t}> <{NS}Product> . ?p <{NS}genre> <{NS}genre2> . ?p <{NS}caption> ?ca . }}")),
        q("S6", "S", format!(
            "SELECT ?rt ?p WHERE {{ ?rt <{NS}offers> ?p . ?p <{NS}genre> <{NS}genre4> . }}")),
        q("S7", "S", format!(
            "SELECT ?p ?ti WHERE {{ ?p <{t}> <{NS}Product> . ?p <{NS}title> ?ti . <{NS}user2> <{NS}likes> ?p . }}")),
        // ----- snowflake -----
        q("F1", "F", format!(
            "SELECT ?p ?r ?u ?c WHERE {{ ?p <{NS}genre> <{NS}genre0> . ?p <{NS}hasReview> ?r . \
             ?r <{NS}reviewer> ?u . ?u <{NS}locatedIn> ?c . }}")),
        q("F2", "F", format!(
            "SELECT ?p ?ti ?r ?rt WHERE {{ ?p <{NS}hasReview> ?r . ?r <{NS}rating> ?rt . \
             ?p <{NS}title> ?ti . ?p <{NS}genre> <{NS}genre3> . ?r <{NS}reviewer> ?u . }}")),
        q("F3", "F", format!(
            "SELECT ?p ?r ?u WHERE {{ <{NS}retailer1> <{NS}offers> ?p . ?p <{NS}hasReview> ?r . \
             ?r <{NS}reviewer> ?u . ?u <{NS}age> ?a . ?u <{NS}locatedIn> ?c . }}")),
        q("F4", "F", format!(
            "SELECT ?u ?p ?r WHERE {{ ?u <{NS}likes> ?p . ?p <{NS}hasReview> ?r . ?r <{NS}rating> 1 . \
             ?u <{NS}locatedIn> <{NS}city2> . }}")),
        q("F5", "F", format!(
            "SELECT ?u ?v ?p ?g WHERE {{ ?u <{NS}follows> ?v . ?v <{NS}likes> ?p . \
             ?p <{NS}genre> ?g . ?g <{t}> <{NS}Genre> . ?u <{NS}locatedIn> <{NS}city3> . }}")),
        // ----- complex -----
        q("C1", "C", format!(
            "SELECT ?u ?p ?r ?u2 ?p2 WHERE {{ ?u <{NS}likes> ?p . ?p <{NS}hasReview> ?r . \
             ?r <{NS}reviewer> ?u2 . ?u2 <{NS}likes> ?p2 . ?p2 <{NS}genre> <{NS}genre5> . }}")),
        q("C2", "C", format!(
            "SELECT ?rt ?p ?r ?u ?v WHERE {{ ?rt <{NS}offers> ?p . ?p <{NS}hasReview> ?r . \
             ?r <{NS}reviewer> ?u . ?u <{NS}follows> ?v . ?v <{NS}locatedIn> <{NS}city4> . }}")),
        q("C3", "C", format!(
            "SELECT ?u ?v ?p WHERE {{ ?u <{NS}friendOf> ?v . ?u <{NS}likes> ?p . ?v <{NS}likes> ?p . }}")),
    ]
}

/// Chain-building helper: emits `n` path patterns starting from `start`
/// (a constant IRI or a variable), cycling through `cycle` predicates.
/// Returns (pattern text, final variable index).
fn chain(start: Option<String>, cycle: &[&str], n: usize) -> (String, usize) {
    let mut body = String::new();
    for step in 0..n {
        let p = cycle[step % cycle.len()];
        let subj = if step == 0 {
            match &start {
                Some(c) => format!("<{NS}{c}>"),
                None => "?x0".to_string(),
            }
        } else {
            format!("?x{step}")
        };
        body.push_str(&format!("{subj} <{NS}{p}> ?x{} . ", step + 1));
    }
    (body, n)
}

/// The type of node a chain built from `cycle` ends on after `n` steps,
/// given the starting node type `start` ("user"/"product"/"review").
fn chain_end_type(cycle: &[&str], n: usize) -> &'static str {
    // Cycle predicates map node types: follows u→u, friendOf u→u,
    // likes u→p, hasReview p→r, reviewer r→u.
    let mut node = "user";
    for step in 0..n {
        node = match (node, cycle[step % cycle.len()]) {
            (_, "follows") | (_, "friendOf") => "user",
            (_, "likes") => "product",
            (_, "hasReview") => "review",
            (_, "reviewer") => "user",
            (n, p) => unreachable!("bad cycle step {n}/{p}"),
        };
    }
    node
}

/// Incremental linear workload `IL-k-5 … IL-k-10` (k ∈ 1..=3).
///
/// * IL-1: constant-anchored mixed chain (selective at every length);
/// * IL-2: constant-anchored product/review chain (selective);
/// * IL-3: unanchored `friendOf` chain (result count grows geometrically
///   — the family where materializing engines collapse, Table 4).
pub fn incremental_linear(k: u8) -> Vec<NamedQuery> {
    assert!((1..=3).contains(&k), "IL variants are 1..=3");
    let group = format!("IL-{k}");
    (5..=10)
        .map(|n| {
            let (body, last) = match k {
                1 => chain(
                    Some("user0".into()),
                    &["follows", "likes", "hasReview", "reviewer"],
                    n,
                ),
                2 => chain(Some("user1".into()), &["likes", "hasReview", "reviewer"], n),
                _ => chain(None, &["friendOf"], n),
            };
            let vars: Vec<String> = (1..=last).map(|i| format!("?x{i}")).collect();
            q(
                format!("IL-{k}-{n}"),
                &group,
                format!("SELECT {} WHERE {{ {body}}}", vars.join(" ")),
            )
        })
        .collect()
}

/// Mixed linear workload `ML-k-5 … ML-k-10` (k ∈ 1..=2): a path plus an
/// attribute pattern on its endpoint.
///
/// * ML-1: anchored path + endpoint attribute (very selective);
/// * ML-2: unanchored path + endpoint attribute (medium).
pub fn mixed_linear(k: u8) -> Vec<NamedQuery> {
    assert!((1..=2).contains(&k), "ML variants are 1..=2");
    let group = format!("ML-{k}");
    (5..=10)
        .map(|n| {
            let cycle: &[&str] = if k == 1 {
                &["follows", "likes", "hasReview", "reviewer"]
            } else {
                &["likes", "hasReview", "reviewer"]
            };
            let start = if k == 1 {
                Some("user2".to_string())
            } else {
                None
            };
            let (mut body, last) = chain(start, cycle, n);
            // The "mixed" part: constrain the endpoint by an attribute.
            let endpoint = format!("?x{last}");
            match chain_end_type(cycle, n) {
                "user" => body.push_str(&format!("{endpoint} <{NS}locatedIn> <{NS}city0> . ")),
                "product" => body.push_str(&format!("{endpoint} <{NS}genre> <{NS}genre0> . ")),
                _ => body.push_str(&format!("{endpoint} <{NS}rating> 5 . ")),
            }
            let vars: Vec<String> = (1..=last).map(|i| format!("?x{i}")).collect();
            q(
                format!("ML-{k}-{n}"),
                &group,
                format!("SELECT {} WHERE {{ {body}}}", vars.join(" ")),
            )
        })
        .collect()
}

/// Every WatDiv query the paper's Tables 3 and 4 report: basic + IL-1/2/3
/// + ML-1/2.
pub fn all_queries() -> Vec<NamedQuery> {
    let mut out = basic_workload();
    for k in 1..=3 {
        out.extend(incremental_linear(k));
    }
    for k in 1..=2 {
        out.extend(mixed_linear(k));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = WatDivConfig { scale: 1, seed: 2 };
        let a = generate_store(&cfg);
        let b = generate_store(&cfg);
        assert_eq!(
            a.iter_triples().collect::<Vec<_>>(),
            b.iter_triples().collect::<Vec<_>>()
        );
        assert_eq!(a.check_invariants(), Ok(()));
    }

    #[test]
    fn entity_counts_scale() {
        let cfg = WatDivConfig { scale: 2, seed: 2 };
        assert_eq!(cfg.users(), 200);
        assert_eq!(cfg.products(), 100);
        let store = generate_store(&cfg);
        assert!(store.num_triples() > 3_000, "{}", store.num_triples());
    }

    #[test]
    fn query_constants_exist() {
        let store = generate_store(&WatDivConfig { scale: 1, seed: 7 });
        for c in [
            "user0",
            "user1",
            "user2",
            "retailer0",
            "retailer1",
            "genre0",
            "genre5",
            "city0",
            "city4",
            "country0",
        ] {
            assert!(
                store
                    .dict()
                    .resource_id(&Term::iri(format!("{NS}{c}")))
                    .is_some(),
                "missing {c}"
            );
        }
    }

    #[test]
    fn workload_inventory_matches_paper() {
        let basic = basic_workload();
        assert_eq!(basic.iter().filter(|q| q.group == "L").count(), 5);
        assert_eq!(basic.iter().filter(|q| q.group == "S").count(), 7);
        assert_eq!(basic.iter().filter(|q| q.group == "F").count(), 5);
        assert_eq!(basic.iter().filter(|q| q.group == "C").count(), 3);
        for k in 1..=3 {
            let il = incremental_linear(k);
            assert_eq!(il.len(), 6);
            assert_eq!(il[0].name, format!("IL-{k}-5"));
            assert_eq!(il[5].name, format!("IL-{k}-10"));
        }
        for k in 1..=2 {
            assert_eq!(mixed_linear(k).len(), 6);
        }
        assert_eq!(all_queries().len(), 20 + 18 + 12);
    }

    #[test]
    fn chain_builder_shapes() {
        let (body, last) = chain(Some("user0".into()), &["follows"], 3);
        assert_eq!(last, 3);
        assert!(body.starts_with(&format!("<{NS}user0> <{NS}follows> ?x1 . ")));
        assert!(body.contains("?x2 <{") || body.contains(&format!("?x2 <{NS}follows> ?x3")));
        let (body, _) = chain(None, &["friendOf"], 2);
        assert!(body.starts_with("?x0"));
    }

    #[test]
    fn chain_end_types() {
        assert_eq!(chain_end_type(&["friendOf"], 7), "user");
        assert_eq!(
            chain_end_type(&["likes", "hasReview", "reviewer"], 1),
            "product"
        );
        assert_eq!(
            chain_end_type(&["likes", "hasReview", "reviewer"], 2),
            "review"
        );
        assert_eq!(
            chain_end_type(&["likes", "hasReview", "reviewer"], 3),
            "user"
        );
    }
}
