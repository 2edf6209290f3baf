//! The results oracle: expected answers computed by `parj-baseline`'s
//! materializing hash-join engine — no code shared with `parj-join` —
//! over the same generated store.
//!
//! Expectations for the default seed are pinned under `expected/` by
//! `parj-bench bless` and compiled in; any other seed (and `--quick`)
//! computes them on the fly, after the timed window so the oracle's
//! intermediate relations do not count towards `peak_rss_mb` and never
//! towards `setup_s`.

use parj_baseline::{BaselineEngine, HashJoinEngine, Relation};
use parj_core::{parse_query, STerm, Term, TripleStore};
use parj_join::Atom;
use parj_optimizer::Pattern;

use crate::json::{self, Value};

/// The seed whose expectations are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned expectation files, by workload name.
const PINNED: [(&str, &str); 4] = [
    (
        "lubm_scan",
        include_str!("../expected/lubm_scan.seed1.json"),
    ),
    (
        "watdiv_serve",
        include_str!("../expected/watdiv_serve.seed1.json"),
    ),
    (
        "mutate_read",
        include_str!("../expected/mutate_read.seed1.json"),
    ),
    (
        "bulk_load",
        include_str!("../expected/bulk_load.seed1.json"),
    ),
];

/// The pinned expectation of `workload`, when `seed`/`scale` match the
/// blessed run.
pub fn pinned(workload: &str, seed: u64, scale: usize) -> Option<Value> {
    if seed != DEFAULT_SEED {
        return None;
    }
    let text = PINNED.iter().find(|(w, _)| *w == workload)?.1;
    let v = json::parse(text).unwrap_or_else(|e| panic!("expected/{workload}.seed1.json: {e}"));
    (v.get("scale")?.as_u64()? == scale as u64).then_some(v)
}

/// A BGP query encoded for the baseline engines: patterns reordered so
/// every pattern after the first shares a variable with the ones before
/// it (the baselines join in list order), plus the variable names.
struct Encoded {
    patterns: Vec<Pattern>,
    vars: Vec<String>,
    projection: Vec<String>,
}

/// `None` when a constant is absent from the data: the answer is empty.
fn encode(store: &TripleStore, sparql: &str) -> Option<Encoded> {
    let parsed = parse_query(sparql).expect("benchmark queries parse");
    assert!(
        parsed.branches.len() <= 1 && !parsed.distinct && parsed.limit.is_none(),
        "the oracle covers plain BGP queries"
    );
    let dict = store.dict();
    let mut vars: Vec<String> = Vec::new();
    let mut atom = |t: &STerm| -> Option<Atom> {
        Some(match t {
            STerm::Var(v) => {
                let i = vars.iter().position(|x| x == v).unwrap_or_else(|| {
                    vars.push(v.clone());
                    vars.len() - 1
                });
                Atom::Var(i as u16)
            }
            STerm::Term(t) => Atom::Const(dict.resource_id(t)?),
        })
    };
    let mut todo = Vec::new();
    for p in &parsed.patterns {
        let STerm::Term(pred) = &p.p else {
            panic!("the oracle needs constant predicates")
        };
        todo.push(Pattern {
            s: atom(&p.s)?,
            p: dict.predicate_id(pred)?,
            o: atom(&p.o)?,
        });
    }
    let is_const = |a: &Atom| matches!(a, Atom::Const(_));
    let var_of = |a: &Atom| match a {
        Atom::Var(v) => Some(*v),
        Atom::Const(_) => None,
    };
    let mut patterns: Vec<Pattern> = Vec::new();
    let mut bound: Vec<u16> = Vec::new();
    while !todo.is_empty() {
        // Connected and constant-anchored first: small intermediates.
        let connected = |p: &Pattern| {
            bound.is_empty()
                || [p.s, p.o]
                    .iter()
                    .filter_map(var_of)
                    .any(|v| bound.contains(&v))
        };
        let pick = (0..todo.len())
            .max_by_key(|&i| {
                let p = &todo[i];
                (
                    connected(p),
                    is_const(&p.s) || is_const(&p.o),
                    std::cmp::Reverse(i),
                )
            })
            .expect("todo is non-empty");
        let p = todo.remove(pick);
        bound.extend([p.s, p.o].iter().filter_map(var_of));
        patterns.push(p);
    }
    Some(Encoded {
        patterns,
        vars,
        projection: parsed.effective_projection(),
    })
}

/// Solution count of `sparql` over `store`.
pub fn count(store: &TripleStore, sparql: &str) -> u64 {
    encode(store, sparql).map_or(0, |q| {
        HashJoinEngine::parallel(1).run_count(store, &q.patterns)
    })
}

/// FNV-1a, the row hash's building block.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-independent digest of a result multiset: one FNV-1a hash per
/// row over `var \x1f term \x1e` cells in projection order, summed with
/// wrapping so row order does not matter but multiplicity does.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RowDigest {
    pub rows: u64,
    pub hash: u64,
}

impl RowDigest {
    fn add_row<'a>(&mut self, cells: impl Iterator<Item = (&'a str, String)>) {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for (var, term) in cells {
            h = fnv1a(var.as_bytes(), h);
            h = fnv1a(&[0x1f], h);
            h = fnv1a(term.as_bytes(), h);
            h = fnv1a(&[0x1e], h);
        }
        self.rows += 1;
        self.hash = self.hash.wrapping_add(h);
    }

    pub fn to_json(self) -> Value {
        json::obj([
            ("rows", json::count(self.rows)),
            ("hash", json::string(format!("{:016x}", self.hash))),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        Some(RowDigest {
            rows: v.get("rows")?.as_u64()?,
            hash: u64::from_str_radix(v.get("hash")?.as_str()?, 16).ok()?,
        })
    }
}

/// Digest of the projected, decoded solutions of `sparql` over `store`.
pub fn digest(store: &TripleStore, sparql: &str) -> RowDigest {
    let mut d = RowDigest::default();
    let Some(q) = encode(store, sparql) else {
        return d;
    };
    let rel: Relation = HashJoinEngine::parallel(1).run(store, &q.patterns);
    let cols: Vec<(usize, &str)> = q
        .projection
        .iter()
        .map(|name| {
            let var = q
                .vars
                .iter()
                .position(|v| v == name)
                .expect("projected variable is bound");
            (
                rel.col_of(var as u16).expect("bound variable has a column"),
                name.as_str(),
            )
        })
        .collect();
    let dict = store.dict();
    for i in 0..rel.len() {
        let row = rel.row(i);
        d.add_row(cols.iter().map(|&(c, name)| {
            (
                name,
                dict.decode_resource(row[c])
                    .expect("stored id decodes")
                    .to_string(),
            )
        }));
    }
    d
}

/// Digest of a SPARQL 1.1 Query Results JSON body.
pub fn digest_sparql_json(body: &str) -> Result<RowDigest, String> {
    let doc = json::parse(body)?;
    let vars: Vec<&str> = doc
        .get("head")
        .and_then(|h| h.get("vars"))
        .and_then(Value::as_arr)
        .ok_or("no head.vars")?
        .iter()
        .filter_map(Value::as_str)
        .collect();
    let bindings = doc
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Value::as_arr)
        .ok_or("no results.bindings")?;
    let mut d = RowDigest::default();
    for b in bindings {
        let mut cells = Vec::with_capacity(vars.len());
        for &var in &vars {
            let cell = b.get(var).ok_or_else(|| format!("unbound ?{var}"))?;
            let value = cell
                .get("value")
                .and_then(Value::as_str)
                .ok_or("binding without value")?;
            let opt = |k: &str| cell.get(k).and_then(Value::as_str).map(str::to_string);
            let term = match cell.get("type").and_then(Value::as_str) {
                Some("uri") => Term::Iri(value.to_string()),
                Some("bnode") => Term::BlankNode(value.to_string()),
                Some("literal") => Term::Literal {
                    lexical: value.to_string(),
                    lang: opt("xml:lang"),
                    datatype: opt("datatype"),
                },
                other => return Err(format!("unknown binding type {other:?}")),
            };
            cells.push((var, term.to_string()));
        }
        d.add_row(cells.into_iter());
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_core::Parj;

    const DATA: &str = "\
<http://e/a> <http://e/p> <http://e/b> .\n\
<http://e/b> <http://e/p> <http://e/c> .\n\
<http://e/a> <http://e/q> \"lit\\\"x\"@en .\n\
<http://e/b> <http://e/q> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";

    fn engine() -> Parj {
        let mut e = Parj::builder().threads(1).build();
        e.load_ntriples_str(DATA).unwrap();
        e.finalize();
        e
    }

    #[test]
    fn baseline_digest_matches_the_served_body() {
        let mut e = engine();
        for q in [
            "SELECT ?x ?z WHERE { ?x <http://e/p> ?y . ?y <http://e/p> ?z }",
            "SELECT ?o ?s WHERE { ?s <http://e/q> ?o }",
            "SELECT ?y WHERE { ?x <http://e/q> ?l . ?x <http://e/p> ?y }",
            "SELECT ?x WHERE { ?x <http://e/p> <http://e/absent> }",
        ] {
            let outcome = e.request(q).run().unwrap();
            let body = parj_server::sparql::to_sparql_json(&outcome);
            let served = digest_sparql_json(&body).unwrap();
            assert_eq!(served, digest(e.store(), q), "{q}");
            assert_eq!(served.rows, count(e.store(), q), "{q}");
        }
    }

    #[test]
    fn digest_ignores_order_but_not_multiplicity() {
        let row = |v: &str| [("x", v.to_string())].into_iter();
        let (mut a, mut b, mut c) = (
            RowDigest::default(),
            RowDigest::default(),
            RowDigest::default(),
        );
        a.add_row(row("1"));
        a.add_row(row("2"));
        b.add_row(row("2"));
        b.add_row(row("1"));
        c.add_row(row("1"));
        c.add_row(row("1"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(RowDigest::from_json(&a.to_json()), Some(a));
    }
}
