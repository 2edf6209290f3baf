//! Recursive-descent parser for the supported SPARQL subset.

use std::collections::HashMap;

use parj_dict::Term;

use crate::ast::{ParsedQuery, STerm, TriplePattern};
use crate::token::{Lexer, SparqlError, Token, TokenKind};
use crate::{RDF_TYPE, XSD_DECIMAL, XSD_INTEGER};

/// Parses a SPARQL `SELECT`/`ASK` BGP query.
pub fn parse_query(src: &str) -> Result<ParsedQuery, SparqlError> {
    let tokens = Lexer::new(src).tokenize()?;
    Parser {
        tokens,
        pos: 0,
        prefixes: HashMap::new(),
    }
    .query()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: HashMap<String, String>,
}

/// A `FILTER (?v = const)` constraint collected during parsing.
struct EqFilter {
    var: String,
    term: Term,
}

/// One UNION branch: its triple patterns plus the filters declared
/// inside it.
type Branch = (Vec<TriplePattern>, Vec<EqFilter>);

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err_at(&self, t: &Token, message: impl Into<String>) -> SparqlError {
        SparqlError {
            line: t.line,
            column: t.column,
            message: message.into(),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), SparqlError> {
        let t = self.bump();
        if &t.kind == kind {
            Ok(())
        } else {
            Err(self.err_at(&t, format!("expected {kind}, found {}", t.kind)))
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.is_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expand_prefixed(&self, t: &Token, prefix: &str, local: &str) -> Result<String, SparqlError> {
        match self.prefixes.get(prefix) {
            Some(ns) => Ok(format!("{ns}{local}")),
            None => Err(self.err_at(t, format!("undeclared prefix `{prefix}:`"))),
        }
    }

    /// Parses one term slot (variable or constant).
    fn sterm(&mut self) -> Result<STerm, SparqlError> {
        let t = self.bump();
        match t.kind.clone() {
            TokenKind::Var(v) => Ok(STerm::Var(v)),
            TokenKind::Iri(iri) => Ok(STerm::Term(Term::iri(iri))),
            TokenKind::PrefixedName(p, l) => {
                Ok(STerm::Term(Term::iri(self.expand_prefixed(&t, &p, &l)?)))
            }
            TokenKind::Ident(ref s) if s == "a" => Ok(STerm::Term(Term::iri(RDF_TYPE))),
            TokenKind::Literal {
                lexical,
                lang,
                datatype,
            } => {
                let term = match (lang, datatype) {
                    (Some(lang), _) => Term::lang_literal(lexical, lang),
                    (None, Some(dt)) => {
                        let dt_iri = match *dt {
                            TokenKind::Iri(i) => i,
                            TokenKind::PrefixedName(p, l) => self.expand_prefixed(&t, &p, &l)?,
                            _ => unreachable!("lexer only emits IRI/prefixed datatype"),
                        };
                        Term::typed_literal(lexical, dt_iri)
                    }
                    (None, None) => Term::literal(lexical),
                };
                Ok(STerm::Term(term))
            }
            TokenKind::Integer(n) => {
                Ok(STerm::Term(Term::typed_literal(n.to_string(), XSD_INTEGER)))
            }
            TokenKind::Decimal(d) => Ok(STerm::Term(Term::typed_literal(d, XSD_DECIMAL))),
            other => Err(self.err_at(&t, format!("expected term, found {other}"))),
        }
    }

    /// Parses `FILTER ( ?v = const )` (and the reversed `const = ?v`).
    fn filter(&mut self) -> Result<EqFilter, SparqlError> {
        self.expect(&TokenKind::LParen)?;
        let lhs = self.sterm()?;
        self.expect(&TokenKind::Eq)?;
        let rhs = self.sterm()?;
        self.expect(&TokenKind::RParen)?;
        match (lhs, rhs) {
            (STerm::Var(v), STerm::Term(t)) | (STerm::Term(t), STerm::Var(v)) => {
                Ok(EqFilter { var: v, term: t })
            }
            _ => {
                let t = self.peek().clone();
                Err(self.err_at(&t, "only FILTER (?var = <constant>) equality is supported"))
            }
        }
    }

    /// Parses a group graph pattern between braces.
    fn group(&mut self) -> Result<Branch, SparqlError> {
        self.expect(&TokenKind::LBrace)?;
        self.group_body()
    }

    /// Parses `{ … }` that is either a plain BGP or a
    /// `{ A } UNION { B } UNION …` chain of sub-groups (the standard
    /// SPARQL GroupOrUnionGraphPattern, restricted to the top level of
    /// the WHERE clause). Returns one `(patterns, filters)` per branch.
    fn group_or_union(&mut self) -> Result<Vec<Branch>, SparqlError> {
        self.expect(&TokenKind::LBrace)?;
        if self.peek().kind == TokenKind::LBrace {
            let mut branches = vec![self.group()?];
            while self.eat_keyword("UNION") {
                branches.push(self.group()?);
            }
            let t = self.peek().clone();
            if t.kind != TokenKind::RBrace {
                return Err(self.err_at(
                    &t,
                    "UNION groups cannot mix with plain triple patterns; \
                     close the group here",
                ));
            }
            self.bump();
            Ok(branches)
        } else {
            Ok(vec![self.group_body()?])
        }
    }

    /// Parses group statements up to and including the closing brace
    /// (the opening brace is already consumed).
    fn group_body(&mut self) -> Result<Branch, SparqlError> {
        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        loop {
            if self.peek().kind == TokenKind::RBrace {
                self.bump();
                break;
            }
            if self.eat_keyword("FILTER") {
                filters.push(self.filter()?);
                // Optional trailing dot after a filter.
                if self.peek().kind == TokenKind::Dot {
                    self.bump();
                }
                continue;
            }
            for kw in [
                "OPTIONAL", "UNION", "GRAPH", "MINUS", "SERVICE", "BIND", "VALUES",
            ] {
                if self.is_keyword(kw) {
                    let t = self.peek().clone();
                    return Err(
                        self.err_at(&t, format!("{kw} is outside the supported BGP subset"))
                    );
                }
            }
            // subject (predicate object (, object)*) (; predicate ...)* .
            let s = self.sterm()?;
            loop {
                let p = self.sterm()?;
                loop {
                    let o = self.sterm()?;
                    patterns.push(TriplePattern {
                        s: s.clone(),
                        p: p.clone(),
                        o,
                    });
                    if self.peek().kind == TokenKind::Comma {
                        self.bump();
                        continue;
                    }
                    break;
                }
                if self.peek().kind == TokenKind::Semicolon {
                    self.bump();
                    // Allow a dangling `;` before `.` or `}` (common in
                    // the wild).
                    if matches!(self.peek().kind, TokenKind::Dot | TokenKind::RBrace) {
                        break;
                    }
                    continue;
                }
                break;
            }
            match self.peek().kind {
                TokenKind::Dot => {
                    self.bump();
                }
                TokenKind::RBrace => {}
                _ => {
                    let t = self.peek().clone();
                    return Err(self.err_at(&t, format!("expected `.` or `}}`, found {}", t.kind)));
                }
            }
        }
        Ok((patterns, filters))
    }

    fn query(&mut self) -> Result<ParsedQuery, SparqlError> {
        // PREFIX declarations.
        loop {
            if self.eat_keyword("PREFIX") {
                let t = self.bump();
                let prefix = match t.kind {
                    // `ub:` lexes as PrefixedName("ub", "").
                    TokenKind::PrefixedName(ref p, ref l) if l.is_empty() => p.clone(),
                    _ => return Err(self.err_at(&t, "expected `prefix:` after PREFIX")),
                };
                let t = self.bump();
                let iri = match t.kind {
                    TokenKind::Iri(ref i) => i.clone(),
                    _ => return Err(self.err_at(&t, "expected <iri> after prefix name")),
                };
                self.prefixes.insert(prefix, iri);
            } else if self.eat_keyword("BASE") {
                let t = self.peek().clone();
                return Err(self.err_at(&t, "BASE is not supported; use absolute IRIs"));
            } else {
                break;
            }
        }

        // Query form.
        let (distinct, projection, is_ask) = if self.eat_keyword("SELECT") {
            let distinct = self.eat_keyword("DISTINCT");
            if self.eat_keyword("REDUCED") {
                // REDUCED is a weaker DISTINCT; treat identically.
            }
            let projection = if self.peek().kind == TokenKind::Star {
                self.bump();
                None
            } else {
                let mut vars = Vec::new();
                while let TokenKind::Var(v) = &self.peek().kind {
                    vars.push(v.clone());
                    self.bump();
                }
                if vars.is_empty() {
                    let t = self.peek().clone();
                    return Err(self.err_at(&t, "SELECT needs variables or *"));
                }
                Some(vars)
            };
            (distinct, projection, false)
        } else if self.eat_keyword("ASK") {
            (false, Some(Vec::new()), true)
        } else {
            let t = self.peek().clone();
            return Err(self.err_at(&t, format!("expected SELECT or ASK, found {}", t.kind)));
        };

        // WHERE is optional before the group in SPARQL.
        self.eat_keyword("WHERE");
        // `{ { A } UNION { B } … }` or a plain group; filters fold into
        // their own branch.
        let branches_raw = self.group_or_union()?;

        // Solution modifiers.
        let mut limit = if is_ask { Some(1) } else { None };
        let mut offset = None;
        let mut order_by: Vec<(String, bool)> = Vec::new();
        loop {
            if self.eat_keyword("LIMIT") {
                let t = self.bump();
                match t.kind {
                    TokenKind::Integer(n) if n >= 0 => limit = Some(n as usize),
                    _ => return Err(self.err_at(&t, "expected nonnegative integer after LIMIT")),
                }
            } else if self.eat_keyword("OFFSET") {
                let t = self.bump();
                match t.kind {
                    TokenKind::Integer(n) if n >= 0 => offset = Some(n as usize),
                    _ => return Err(self.err_at(&t, "expected nonnegative integer after OFFSET")),
                }
            } else if self.eat_keyword("ORDER") {
                if !self.eat_keyword("BY") {
                    let t = self.peek().clone();
                    return Err(self.err_at(&t, "expected BY after ORDER"));
                }
                loop {
                    let desc = if self.eat_keyword("DESC") {
                        self.expect(&TokenKind::LParen)?;
                        true
                    } else if self.eat_keyword("ASC") {
                        self.expect(&TokenKind::LParen)?;
                        false
                    } else if matches!(self.peek().kind, TokenKind::Var(_)) {
                        // Bare variable key.
                        let TokenKind::Var(v) = self.bump().kind else {
                            unreachable!("peeked a var");
                        };
                        order_by.push((v, false));
                        continue;
                    } else {
                        break;
                    };
                    let t = self.bump();
                    let TokenKind::Var(v) = t.kind else {
                        return Err(self.err_at(&t, "expected ?variable inside ASC()/DESC()"));
                    };
                    self.expect(&TokenKind::RParen)?;
                    order_by.push((v, desc));
                }
                if order_by.is_empty() {
                    let t = self.peek().clone();
                    return Err(self.err_at(&t, "ORDER BY needs at least one ?variable key"));
                }
            } else if self.eat_keyword("GROUP") {
                let t = self.peek().clone();
                return Err(self.err_at(&t, "GROUP BY is outside the supported subset"));
            } else {
                break;
            }
        }
        let t = self.peek().clone();
        if t.kind != TokenKind::Eof {
            return Err(self.err_at(&t, format!("unexpected trailing {}", t.kind)));
        }

        // Fold each branch's equality filters into its patterns
        // (constant substitution).
        let mut branches: Vec<Vec<TriplePattern>> = Vec::with_capacity(branches_raw.len());
        for (mut patterns, filters) in branches_raw {
            for f in &filters {
                let mut used = false;
                for pat in &mut patterns {
                    for slot in [&mut pat.s, &mut pat.p, &mut pat.o] {
                        if slot.as_var() == Some(f.var.as_str()) {
                            *slot = STerm::Term(f.term.clone());
                            used = true;
                        }
                    }
                }
                if !used {
                    return Err(SparqlError {
                        line: 1,
                        column: 1,
                        message: format!("FILTER references unknown variable ?{}", f.var),
                    });
                }
                if let Some(proj) = &projection {
                    if proj.iter().any(|v| v == &f.var) {
                        return Err(SparqlError {
                            line: 1,
                            column: 1,
                            message: format!(
                                "?{} is both projected and fixed by a FILTER; \
                                 remove it from SELECT",
                                f.var
                            ),
                        });
                    }
                }
            }
            if patterns.is_empty() {
                return Err(SparqlError {
                    line: 1,
                    column: 1,
                    message: "empty basic graph pattern".into(),
                });
            }
            branches.push(patterns);
        }
        let patterns: Vec<TriplePattern> = branches.iter().flatten().cloned().collect();

        // ORDER BY keys must reference variables the query binds.
        for (v, _) in &order_by {
            let known = patterns.iter().any(|p| {
                [&p.s, &p.p, &p.o]
                    .into_iter()
                    .any(|s| s.as_var() == Some(v.as_str()))
            });
            if !known {
                return Err(SparqlError {
                    line: 1,
                    column: 1,
                    message: format!("ORDER BY references unknown variable ?{v}"),
                });
            }
        }

        Ok(ParsedQuery {
            distinct,
            projection,
            patterns,
            branches,
            order_by,
            offset,
            limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_star_simple() {
        let q = parse_query("SELECT * WHERE { ?s <http://e/p> ?o . }").unwrap();
        assert_eq!(q.projection, None);
        assert_eq!(q.patterns.len(), 1);
        assert_eq!(q.effective_projection(), vec!["s", "o"]);
        assert!(!q.distinct);
        assert_eq!(q.limit, None);
    }

    #[test]
    fn prefixes_expand() {
        let q =
            parse_query("PREFIX ub: <http://univ#>\nSELECT ?x WHERE { ?x ub:worksFor ub:U1 . }")
                .unwrap();
        assert_eq!(
            q.patterns[0].p,
            STerm::Term(Term::iri("http://univ#worksFor"))
        );
        assert_eq!(q.patterns[0].o, STerm::Term(Term::iri("http://univ#U1")));
    }

    #[test]
    fn semicolon_comma_abbreviations() {
        let q = parse_query(
            "SELECT * WHERE { ?x <http://e/p> ?a , ?b ; <http://e/q> ?c . ?y <http://e/r> ?x . }",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 4);
        assert_eq!(q.patterns[0].s, q.patterns[1].s);
        assert_eq!(q.patterns[0].p, q.patterns[1].p);
        assert_eq!(q.patterns[2].p, STerm::Term(Term::iri("http://e/q")));
        assert_eq!(q.patterns[3].s, STerm::Var("y".into()));
    }

    #[test]
    fn a_keyword_is_rdf_type() {
        let q = parse_query("SELECT ?x WHERE { ?x a <http://e/Class> . }").unwrap();
        assert_eq!(q.patterns[0].p, STerm::Term(Term::iri(crate::RDF_TYPE)));
    }

    #[test]
    fn literals_and_numbers() {
        let q = parse_query(
            r#"SELECT ?x WHERE { ?x <http://e/name> "Alice"@en . ?x <http://e/age> 42 . ?x <http://e/gpa> 3.5 . }"#,
        )
        .unwrap();
        assert_eq!(
            q.patterns[0].o,
            STerm::Term(Term::lang_literal("Alice", "en"))
        );
        assert_eq!(
            q.patterns[1].o,
            STerm::Term(Term::typed_literal("42", crate::XSD_INTEGER))
        );
        assert_eq!(
            q.patterns[2].o,
            STerm::Term(Term::typed_literal("3.5", crate::XSD_DECIMAL))
        );
    }

    #[test]
    fn distinct_and_limit() {
        let q = parse_query("SELECT DISTINCT ?x WHERE { ?x <http://e/p> ?y } LIMIT 10").unwrap();
        assert!(q.distinct);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn ask_form() {
        let q = parse_query("ASK { <http://e/a> <http://e/p> <http://e/b> }").unwrap();
        assert_eq!(q.projection, Some(vec![]));
        assert_eq!(q.limit, Some(1));
    }

    #[test]
    fn filter_folds_to_constant() {
        // Example 3.2's query shape.
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?x ?z WHERE { ?x e:teaches ?z . ?x e:worksFor ?y . FILTER (?y = e:University1) }",
        )
        .unwrap();
        assert_eq!(
            q.patterns[1].o,
            STerm::Term(Term::iri("http://e/University1"))
        );
    }

    #[test]
    fn missing_final_dot_is_ok() {
        let q = parse_query("SELECT * WHERE { ?s ?p ?o }").unwrap();
        assert_eq!(q.patterns.len(), 1);
        // Variable predicate is representable.
        assert_eq!(q.patterns[0].p, STerm::Var("p".into()));
    }

    #[test]
    fn error_cases() {
        // Undeclared prefix.
        assert!(parse_query("SELECT ?x WHERE { ?x ub:p ?y }").is_err());
        // Unsupported features fail loudly.
        assert!(parse_query("SELECT ?x WHERE { OPTIONAL { ?x <http://e/p> ?y } }").is_err());
        // ORDER BY with a bogus variable is rejected.
        assert!(parse_query("SELECT ?x WHERE { ?x <http://e/p> ?y } ORDER BY ?zz").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x <http://e/p> ?y } GROUP BY ?x").is_err());
        // Not a query.
        assert!(parse_query("INSERT DATA { }").is_err());
        // Empty BGP.
        assert!(parse_query("SELECT * WHERE { }").is_err());
        // Missing SELECT vars.
        assert!(parse_query("SELECT WHERE { ?s ?p ?o }").is_err());
        // Trailing garbage.
        assert!(parse_query("SELECT * WHERE { ?s ?p ?o } garbage").is_err());
        // Filter over unknown var.
        assert!(
            parse_query("SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER(?zz = <http://e/a>) }")
                .is_err()
        );
        // Projected var fixed by filter.
        assert!(
            parse_query("SELECT ?y WHERE { ?x <http://e/p> ?y . FILTER(?y = <http://e/a>) }")
                .is_err()
        );
    }

    #[test]
    fn error_position_quality() {
        let e = parse_query("SELECT ?x WHERE { ?x <http://e/p> }").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.column >= 34, "column {}", e.column);
    }

    #[test]
    fn dangling_semicolon_tolerated() {
        let q = parse_query("SELECT * WHERE { ?x <http://e/p> ?y ; . }").unwrap();
        assert_eq!(q.patterns.len(), 1);
    }
}

#[cfg(test)]
mod union_tests {
    use super::*;

    #[test]
    fn union_branches_parse() {
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?x WHERE { { ?x e:p ?y } UNION { ?x e:q ?y } UNION { ?x e:r ?y } }",
        )
        .unwrap();
        assert_eq!(q.branches.len(), 3);
        assert_eq!(q.patterns.len(), 3);
        assert_eq!(q.branches[1][0].p, STerm::Term(Term::iri("http://e/q")));
    }

    #[test]
    fn union_with_filters_and_abbreviations() {
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?x WHERE { \
             { ?x e:p ?y ; e:q ?z . FILTER(?z = e:c) } UNION { ?x e:r ?y } }",
        )
        .unwrap();
        assert_eq!(q.branches.len(), 2);
        assert_eq!(q.branches[0].len(), 2);
        // The filter folded into the first branch only.
        assert_eq!(q.branches[0][1].o, STerm::Term(Term::iri("http://e/c")));
    }

    #[test]
    fn plain_group_is_single_branch() {
        let q = parse_query("SELECT * WHERE { ?s ?p ?o }").unwrap();
        assert_eq!(q.branches.len(), 1);
        assert_eq!(q.branches[0], q.patterns);
    }

    #[test]
    fn union_rejects_mixing_with_patterns() {
        assert!(parse_query(
            "PREFIX e: <http://e/> SELECT ?x WHERE { { ?x e:p ?y } UNION { ?x e:q ?y } ?x e:r ?y }"
        )
        .is_err());
        // UNION keyword inside a plain body is still rejected.
        assert!(parse_query(
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:p ?y UNION { ?x e:q ?y } }"
        )
        .is_err());
        // Empty branch.
        assert!(parse_query("SELECT ?x WHERE { { ?x <http://e/p> ?y } UNION { } }").is_err());
    }
}
