//! Translation of a parsed SPARQL query into dictionary-encoded pattern
//! sets ready for the optimizer.
//!
//! Variables get dense [`VarId`]s in first-occurrence order. Constants
//! are resolved against the dictionary **without inserting** — a
//! constant the data never mentions makes the whole query empty, which
//! is reported as [`Translation::Empty`] so the engine can skip
//! execution entirely.
//!
//! A triple pattern with a **variable predicate** expands into a union
//! over all predicates (§3 of the paper: "a union over all properties
//! will be needed, but this is rarely encountered in real world
//! queries"): one pattern set per assignment of the predicate variables,
//! capped to keep pathological queries from exploding.

use parj_dict::{DictView, Id};
use parj_join::{Atom, VarId};
use parj_optimizer::Pattern;
use parj_sparql::{ParsedQuery, STerm};

use crate::error::ParjError;

/// Upper bound on predicate-variable expansion (`predicates ^
/// pred_vars` pattern sets).
pub const MAX_PRED_COMBINATIONS: usize = 4096;

/// A query translated to the encoded domain.
#[derive(Debug, Clone)]
pub struct TranslatedQuery {
    /// Number of (subject/object) variable slots.
    pub num_vars: usize,
    /// Variable names indexed by [`VarId`].
    pub var_names: Vec<String>,
    /// Projected variable slots, in output order.
    pub projection: Vec<VarId>,
    /// Projected variable names (parallel to `projection`).
    pub proj_names: Vec<String>,
    /// `DISTINCT`?
    pub distinct: bool,
    /// `ORDER BY` keys as `(slot, descending)` in priority order.
    pub order_by: Vec<(VarId, bool)>,
    /// `OFFSET`, if any.
    pub offset: Option<usize>,
    /// `LIMIT`, if any.
    pub limit: Option<usize>,
    /// One encoded pattern set per UNION branch × predicate-variable
    /// assignment × hierarchy alternative (exactly one for plain
    /// queries). Results are the union over all sets.
    pub pattern_sets: Vec<Vec<Pattern>>,
    /// The UNION branch each pattern set came from (parallel to
    /// `pattern_sets`). Hierarchy dedup is scoped per branch: duplicate
    /// solutions *across* branches are legitimate SPARQL multiset
    /// results, duplicates *within* a branch are alternative
    /// derivations.
    pub set_branch: Vec<usize>,
    /// True when RDFS hierarchy expansion fired: the pattern sets are
    /// alternative *derivations* of the same solutions, so the engine
    /// must deduplicate full solution mappings (the semantics
    /// forward-chaining materialization would give).
    pub dedup_full: bool,
    /// True when plans must materialize *all* variables (hierarchy
    /// dedup, or ordering by a non-projected variable); the projection
    /// is applied after dedup/sort.
    pub full_rows: bool,
}

/// Outcome of translation.
#[derive(Debug, Clone)]
pub enum Translation {
    /// A constant in the query is absent from the data; the result is
    /// empty with these projected variable names.
    Empty {
        /// Projected variable names.
        proj_names: Vec<String>,
        /// `LIMIT`, preserved for consistency.
        limit: Option<usize>,
    },
    /// A runnable translation.
    Run(TranslatedQuery),
}

/// Translates `query` against `dict` — a [`DictView`] over the base
/// dictionary plus any pending mutation-delta terms, so constants
/// introduced by incremental writes resolve exactly like loaded ones —
/// optionally expanding RDFS hierarchies (see [`crate::Hierarchy`]).
pub fn translate(
    query: &ParsedQuery,
    dict: DictView<'_>,
    hierarchy: Option<&crate::hierarchy::Hierarchy>,
) -> Result<Translation, ParjError> {
    let proj_names = query.effective_projection();

    // Assign VarIds to subject/object variables; collect predicate vars.
    let mut var_names: Vec<String> = Vec::new();
    let mut pred_vars: Vec<String> = Vec::new();
    for pat in &query.patterns {
        for slot in [&pat.s, &pat.o] {
            if let STerm::Var(v) = slot {
                if !var_names.iter().any(|n| n == v) {
                    var_names.push(v.clone());
                }
            }
        }
        if let STerm::Var(v) = &pat.p {
            if !pred_vars.iter().any(|n| n == v) {
                pred_vars.push(v.clone());
            }
        }
    }
    for pv in &pred_vars {
        if var_names.iter().any(|n| n == pv) {
            return Err(ParjError::Unsupported(format!(
                "variable ?{pv} is used in both predicate and subject/object \
                 position; predicate and resource namespaces are disjoint"
            )));
        }
        if proj_names.iter().any(|n| n == pv) {
            return Err(ParjError::Unsupported(format!(
                "projecting predicate variable ?{pv} is not supported"
            )));
        }
    }
    if var_names.len() > VarId::MAX as usize {
        return Err(ParjError::Unsupported("too many variables".into()));
    }
    let var_id = |name: &str| -> VarId {
        var_names.iter().position(|n| n == name).expect("collected") as VarId
    };

    // Projection: every projected name must be a subject/object variable.
    let mut projection = Vec::with_capacity(proj_names.len());
    for name in &proj_names {
        match var_names.iter().position(|n| n == name) {
            Some(i) => projection.push(i as VarId),
            None => {
                return Err(ParjError::Unsupported(format!(
                    "projected variable ?{name} does not occur in the pattern"
                )))
            }
        }
    }

    // Resolve terms. A missing constant empties the query.
    let resolve_atom = |slot: &STerm| -> Result<Option<Atom>, ParjError> {
        Ok(match slot {
            STerm::Var(v) => Some(Atom::Var(var_id(v))),
            STerm::Term(t) => dict.resource_id(t).map(Atom::Const),
        })
    };

    /// Predicate slot: concrete id, or index into `pred_vars`.
    enum PredSlot {
        Const(Id),
        Var(usize),
    }

    // Build pattern sets per UNION branch. Within a branch, per-pattern
    // alternatives multiply: without a hierarchy every pattern has
    // exactly one; RDFS reasoning (§6 of the paper) adds subproperty
    // alternatives for constant predicates and subclass alternatives
    // for `rdf:type` objects — the pipelined "unioning of tables".
    // A constant absent from the data empties only its own branch.
    let num_preds = dict.num_predicates();
    let mut sets: Vec<Vec<Pattern>> = Vec::new();
    let mut set_branch: Vec<usize> = Vec::new();
    let mut expanded = false;
    let mut total_sets: usize = 0;

    'branches: for (branch_idx, branch) in query.branches.iter().enumerate() {
        // Every projected variable must be bound in every branch (a
        // left-deep pipeline has no unbound-solution representation).
        for (&slot, name) in projection.iter().zip(&proj_names) {
            let bound = branch.iter().any(|pat| {
                [&pat.s, &pat.o]
                    .into_iter()
                    .any(|t| t.as_var() == Some(name.as_str()))
            });
            let _ = slot;
            if !bound {
                return Err(ParjError::Unsupported(format!(
                    "?{name} is projected but not bound in every UNION branch"
                )));
            }
        }

        // Predicate variables used in this branch (assignments for
        // variables the branch never mentions must not duplicate it).
        let branch_pred_vars: Vec<usize> = pred_vars
            .iter()
            .enumerate()
            .filter(|(_, name)| {
                branch
                    .iter()
                    .any(|pat| pat.p.as_var() == Some(name.as_str()))
            })
            .map(|(i, _)| i)
            .collect();
        if !branch_pred_vars.is_empty() && num_preds == 0 {
            continue 'branches;
        }

        let mut alternatives: Vec<Vec<(Atom, PredSlot, Atom)>> = Vec::with_capacity(branch.len());
        for pat in branch {
            let Some(s) = resolve_atom(&pat.s)? else {
                continue 'branches;
            };
            let Some(o) = resolve_atom(&pat.o)? else {
                continue 'branches;
            };
            // Resolve the predicate slot. With reasoning on, constant
            // predicates expand to the predicate ids of their declared
            // subproperties — keyed by the property's *resource* id, so
            // a super-property that never occurs directly still answers
            // via its descendants' partitions.
            enum PredResolution {
                Var(usize),
                Preds(Vec<Id>),
            }
            let resolution = match &pat.p {
                STerm::Var(v) => {
                    PredResolution::Var(pred_vars.iter().position(|n| n == v).expect("seen"))
                }
                STerm::Term(t) => {
                    let direct = dict.predicate_id(t);
                    let expanded_preds = hierarchy
                        .and_then(|h| dict.resource_id(t).and_then(|res| h.subproperties(res)))
                        .map(|subs| subs.to_vec());
                    match (expanded_preds, direct) {
                        (Some(preds), _) => PredResolution::Preds(preds),
                        (None, Some(id)) => PredResolution::Preds(vec![id]),
                        (None, None) => continue 'branches,
                    }
                }
            };
            let mut alts: Vec<(Atom, PredSlot, Atom)> = Vec::new();
            match resolution {
                PredResolution::Var(i) => alts.push((s, PredSlot::Var(i), o)),
                PredResolution::Preds(preds) => {
                    for pred in preds {
                        // Subclass expansion applies to `rdf:type` objects.
                        let objects: Vec<Atom> = match (hierarchy, o) {
                            (Some(h), Atom::Const(class)) if h.rdf_type() == Some(pred) => {
                                match h.subclasses(class) {
                                    Some(subs) => subs.iter().map(|&c| Atom::Const(c)).collect(),
                                    None => vec![o],
                                }
                            }
                            _ => vec![o],
                        };
                        for obj in objects {
                            alts.push((s, PredSlot::Const(pred), obj));
                        }
                    }
                }
            }
            if alts.len() > 1 {
                expanded = true;
            }
            alternatives.push(alts);
        }

        // Branch expansion total, capped globally.
        let mut branch_total: usize = 1;
        for alts in &alternatives {
            branch_total = branch_total.saturating_mul(alts.len());
        }
        for _ in 0..branch_pred_vars.len() {
            branch_total = branch_total.saturating_mul(num_preds);
        }
        total_sets = total_sets.saturating_add(branch_total);
        if total_sets > MAX_PRED_COMBINATIONS {
            return Err(ParjError::Unsupported(format!(
                "query expansion would need more than {MAX_PRED_COMBINATIONS} \
                 pattern sets ({} predicate variables over {num_preds} \
                 predicates, hierarchy alternatives {:?})",
                pred_vars.len(),
                alternatives.iter().map(Vec::len).collect::<Vec<_>>()
            )));
        }

        // Odometer over (pattern-alternative indexes, assignments of the
        // branch's predicate variables).
        let mut alt_idx = vec![0usize; alternatives.len()];
        let mut assignment = vec![0usize; pred_vars.len()];
        'odometer: loop {
            sets.push(
                alternatives
                    .iter()
                    .zip(&alt_idx)
                    .map(|(alts, &i)| {
                        let (s, ref p, o) = alts[i];
                        Pattern {
                            s,
                            p: match p {
                                PredSlot::Const(id) => *id,
                                PredSlot::Var(v) => assignment[*v] as Id,
                            },
                            o,
                        }
                    })
                    .collect(),
            );
            set_branch.push(branch_idx);
            // Pattern alternatives first, then this branch's pred vars.
            for (i, alts) in alternatives.iter().enumerate() {
                alt_idx[i] += 1;
                if alt_idx[i] < alts.len() {
                    continue 'odometer;
                }
                alt_idx[i] = 0;
            }
            for &v in &branch_pred_vars {
                assignment[v] += 1;
                if assignment[v] < num_preds {
                    continue 'odometer;
                }
                assignment[v] = 0;
            }
            break;
        }
    }

    if sets.is_empty() {
        return Ok(Translation::Empty {
            proj_names,
            limit: query.limit,
        });
    }

    // ORDER BY keys: must be subject/object variables the query binds.
    let mut order_by: Vec<(VarId, bool)> = Vec::with_capacity(query.order_by.len());
    for (name, desc) in &query.order_by {
        match var_names.iter().position(|n| n == name) {
            Some(i) => order_by.push((i as VarId, *desc)),
            None => {
                return Err(ParjError::Unsupported(format!(
                    "ORDER BY variable ?{name} is not bound by the pattern                      (predicate variables cannot be ordering keys)"
                )))
            }
        }
    }
    let full_rows = expanded || order_by.iter().any(|(v, _)| !projection.contains(v));

    Ok(Translation::Run(TranslatedQuery {
        num_vars: var_names.len(),
        var_names,
        projection,
        proj_names,
        distinct: query.distinct,
        order_by,
        offset: query.offset,
        limit: query.limit,
        pattern_sets: sets,
        set_branch,
        dedup_full: expanded,
        full_rows,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;
    use parj_sparql::parse_query;

    use parj_dict::Dictionary;

    fn dict() -> Dictionary {
        let mut d = Dictionary::new();
        for r in ["http://e/a", "http://e/b", "http://e/c"] {
            d.encode_resource(&Term::iri(r));
        }
        for p in ["http://e/p", "http://e/q"] {
            d.encode_predicate(&Term::iri(p));
        }
        d
    }

    fn run(src: &str) -> Translation {
        let d = dict();
        translate(&parse_query(src).unwrap(), DictView::base(&d), None).unwrap()
    }

    #[test]
    fn basic_translation() {
        let t = run("SELECT ?x WHERE { ?x <http://e/p> <http://e/b> . ?x <http://e/q> ?y }");
        let Translation::Run(t) = t else {
            panic!("expected runnable")
        };
        assert_eq!(t.num_vars, 2);
        assert_eq!(t.var_names, vec!["x", "y"]);
        assert_eq!(t.projection, vec![0]);
        assert_eq!(t.pattern_sets.len(), 1);
        let pats = &t.pattern_sets[0];
        assert_eq!(pats[0].p, 0);
        assert_eq!(pats[0].o, Atom::Const(1));
        assert_eq!(pats[1].p, 1);
    }

    #[test]
    fn missing_constant_is_empty() {
        let t = run("SELECT ?x WHERE { ?x <http://e/p> <http://e/nope> }");
        assert!(matches!(t, Translation::Empty { .. }));
        let t = run("SELECT ?x WHERE { ?x <http://e/nopred> ?y }");
        assert!(matches!(t, Translation::Empty { .. }));
    }

    #[test]
    fn predicate_variable_expands() {
        let t = run("SELECT ?x ?y WHERE { ?x ?p ?y }");
        let Translation::Run(t) = t else {
            panic!("expected runnable")
        };
        assert_eq!(t.pattern_sets.len(), 2); // two predicates in the dict
        assert_eq!(t.pattern_sets[0][0].p, 0);
        assert_eq!(t.pattern_sets[1][0].p, 1);
    }

    #[test]
    fn two_pred_vars_cartesian() {
        let t = run("SELECT ?x WHERE { ?x ?p ?y . ?y ?q ?z }");
        let Translation::Run(t) = t else {
            panic!("expected runnable")
        };
        assert_eq!(t.pattern_sets.len(), 4);
        // Same pred var in two patterns must expand consistently.
        let t = run("SELECT ?x WHERE { ?x ?p ?y . ?y ?p ?z }");
        let Translation::Run(t) = t else {
            panic!("expected runnable")
        };
        assert_eq!(t.pattern_sets.len(), 2);
        for set in &t.pattern_sets {
            assert_eq!(set[0].p, set[1].p);
        }
    }

    #[test]
    fn rejects_pred_var_misuse() {
        let q = parse_query("SELECT ?p WHERE { ?x ?p ?y }").unwrap();
        assert!(matches!(
            translate(&q, DictView::base(&dict()), None),
            Err(ParjError::Unsupported(_))
        ));
        let q = parse_query("SELECT ?x WHERE { ?x ?p ?y . ?p <http://e/q> ?z }").unwrap();
        assert!(matches!(
            translate(&q, DictView::base(&dict()), None),
            Err(ParjError::Unsupported(_))
        ));
    }

    #[test]
    fn distinct_and_limit_carried() {
        let t = run("SELECT DISTINCT ?x WHERE { ?x <http://e/p> ?y } LIMIT 5");
        let Translation::Run(t) = t else {
            panic!("expected runnable")
        };
        assert!(t.distinct);
        assert_eq!(t.limit, Some(5));
    }
}
