//! Bottom-up dynamic programming over left-deep join orders (§4.3).

use parj_dict::Id;
use parj_join::{Atom, PhysicalPlan, PlanStep, VarId};
use parj_store::SortOrder;

use crate::stats::Stats;

/// A dictionary-encoded triple pattern with a concrete predicate.
/// Variable predicates are expanded into unions by the engine before
/// optimization (§3: "a union over all properties will be needed, but
/// this is rarely encountered in real world queries").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    /// Subject atom.
    pub s: Atom,
    /// Predicate id.
    pub p: Id,
    /// Object atom.
    pub o: Atom,
}

/// Optimization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    /// No patterns.
    Empty,
    /// The BGP contains a pattern that can never be keyed: it has no
    /// constant and shares no variable with the rest of the query, so a
    /// left-deep pipeline would need a cartesian product, which PARJ
    /// does not evaluate.
    Disconnected,
    /// Produced plan failed validation (indicates an internal bug; the
    /// message is preserved).
    Internal(String),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Empty => write!(f, "empty basic graph pattern"),
            OptimizeError::Disconnected => write!(
                f,
                "disconnected basic graph pattern requires a cartesian product, \
                 which the left-deep pipeline does not support"
            ),
            OptimizeError::Internal(m) => write!(f, "optimizer internal error: {m}"),
        }
    }
}

impl std::error::Error for OptimizeError {}

/// Which column of a pattern serves as the probe/scan key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeySide {
    Subject,
    Object,
}

/// Where a bound variable's values come from (for pair-statistics
/// lookups) plus the domain size.
#[derive(Debug, Clone, Copy)]
struct VarSource {
    pred: Id,
    side: KeySide,
    distinct: f64,
}

/// Estimation context shared by DP and greedy.
struct Est<'a> {
    stats: &'a Stats,
    patterns: &'a [Pattern],
}

/// Outcome of costing one candidate step.
#[derive(Debug, Clone, Copy)]
struct StepEst {
    key: KeySide,
    out_rows: f64,
    cost: f64,
}

impl Est<'_> {
    fn pred_triples(&self, p: Id) -> f64 {
        self.stats.pred(p).map_or(0.0, |s| s.triples as f64)
    }

    /// Cardinality of a pattern evaluated alone (driver estimate).
    fn pattern_card(&self, pat: &Pattern) -> f64 {
        let Some(ps) = self.stats.pred(pat.p) else {
            return 0.0;
        };
        match (pat.s, pat.o) {
            (Atom::Var(a), Atom::Var(b)) if a == b => {
                // Self-loop: bounded by subjects that are also objects.
                self.stats
                    .pair(pat.p, pat.p)
                    .map_or(1.0, |c| c.so as f64)
                    .min(ps.triples as f64)
            }
            (Atom::Var(_), Atom::Var(_)) => ps.triples as f64,
            (Atom::Const(c), Atom::Var(_)) => ps.subject_hist.estimate_freq(c),
            (Atom::Var(_), Atom::Const(c)) => ps.object_hist.estimate_freq(c),
            (Atom::Const(cs), Atom::Const(co)) => {
                if ps.subject_hist.may_contain(cs) && ps.object_hist.may_contain(co) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Overlap between a bound variable's source column and the key
    /// column of `pred` — the pair-cardinality corrective step, with a
    /// containment fallback.
    fn overlap(&self, src: &VarSource, pred: Id, key: KeySide) -> f64 {
        let key_distinct = self.key_distinct(pred, key);
        match self.stats.pair(src.pred, pred) {
            Some(pc) => {
                let ov = match (src.side, key) {
                    (KeySide::Subject, KeySide::Subject) => pc.ss,
                    (KeySide::Subject, KeySide::Object) => pc.so,
                    (KeySide::Object, KeySide::Subject) => pc.os,
                    (KeySide::Object, KeySide::Object) => pc.oo,
                } as f64;
                ov.min(src.distinct).min(key_distinct)
            }
            None => src.distinct.min(key_distinct),
        }
    }

    fn key_distinct(&self, pred: Id, key: KeySide) -> f64 {
        self.stats.pred(pred).map_or(0.0, |s| match key {
            KeySide::Subject => s.distinct_subjects as f64,
            KeySide::Object => s.distinct_objects as f64,
        })
    }

    fn key_freq(&self, pred: Id, key: KeySide, c: Id) -> f64 {
        self.stats.pred(pred).map_or(0.0, |s| match key {
            KeySide::Subject => s.subject_hist.estimate_freq(c),
            KeySide::Object => s.object_hist.estimate_freq(c),
        })
    }

    /// Estimates output rows per input tuple when probing pattern `j`
    /// keyed on `key`, given the bound-variable sources.
    fn probe_est(&self, pat: &Pattern, key: KeySide, sources: &[Option<VarSource>]) -> Option<f64> {
        let triples = self.pred_triples(pat.p);
        if triples == 0.0 {
            return Some(0.0);
        }
        let nk = self.key_distinct(pat.p, key).max(1.0);
        let (key_atom, val_atom) = match key {
            KeySide::Subject => (pat.s, pat.o),
            KeySide::Object => (pat.o, pat.s),
        };
        let val_side = match key {
            KeySide::Subject => KeySide::Object,
            KeySide::Object => KeySide::Subject,
        };
        let nv = self.key_distinct(pat.p, val_side).max(1.0);

        // Probability a probe hits a key, and the group size when it does.
        let (match_prob, group_size) = match key_atom {
            Atom::Const(c) => {
                let f = self.key_freq(pat.p, key, c);
                if f <= 0.0 {
                    return Some(0.0);
                }
                (1.0, f)
            }
            Atom::Var(v) => {
                let src = sources[v as usize]?; // must be bound
                let ov = self.overlap(&src, pat.p, key);
                ((ov / src.distinct.max(1.0)).min(1.0), triples / nk)
            }
        };
        // Expected matching values within the group.
        let value_part = match val_atom {
            Atom::Var(v) if Some(v) == key_atom_var(key_atom) => {
                // `?x p ?x`: one membership test per group.
                (group_size / nv).min(1.0)
            }
            Atom::Var(v) => match sources[v as usize] {
                None => group_size, // fresh: take the whole group
                Some(src) => {
                    let ov = self.overlap(&src, pat.p, val_side);
                    (group_size * ov / (src.distinct.max(1.0) * nv)).min(1.0)
                }
            },
            Atom::Const(c) => {
                let fv = self.key_freq(pat.p, val_side, c);
                (fv / nk).min(1.0)
            }
        };
        Some(match_prob * value_part)
    }

    /// Costs the best key choice for probing pattern `j` given bound
    /// variables; `None` if the pattern is not probeable yet.
    fn best_probe(
        &self,
        pat: &Pattern,
        sources: &[Option<VarSource>],
        in_rows: f64,
    ) -> Option<StepEst> {
        let mut best: Option<StepEst> = None;
        for key in [KeySide::Subject, KeySide::Object] {
            let key_atom = match key {
                KeySide::Subject => pat.s,
                KeySide::Object => pat.o,
            };
            let usable = match key_atom {
                Atom::Const(_) => true,
                Atom::Var(v) => sources[v as usize].is_some(),
            };
            if !usable {
                continue;
            }
            let Some(per_input) = self.probe_est(pat, key, sources) else {
                continue;
            };
            let out_rows = in_rows * per_input;
            let nk = self.key_distinct(pat.p, key).max(2.0);
            // C_out-style cost: intermediate size dominates; probing adds
            // a logarithmic per-tuple term (binary-search model, §4.3 —
            // adaptivity only improves on this).
            let cost = out_rows + 0.1 * in_rows * nk.log2();
            if best.is_none_or(|b| cost < b.cost) {
                best = Some(StepEst {
                    key,
                    out_rows,
                    cost,
                });
            }
        }
        best
    }
}

fn key_atom_var(a: Atom) -> Option<VarId> {
    match a {
        Atom::Var(v) => Some(v),
        Atom::Const(_) => None,
    }
}

/// Updates variable sources after evaluating `pat` keyed on `key`.
fn bind_sources(est: &Est<'_>, pat: &Pattern, sources: &mut [Option<VarSource>]) {
    for (atom, side) in [(pat.s, KeySide::Subject), (pat.o, KeySide::Object)] {
        if let Atom::Var(v) = atom {
            let distinct = est.key_distinct(pat.p, side).max(1.0);
            let slot = &mut sources[v as usize];
            // Keep the most selective known source for the variable.
            if slot.is_none_or(|s| distinct < s.distinct) {
                *slot = Some(VarSource {
                    pred: pat.p,
                    side,
                    distinct,
                });
            }
        }
    }
}

/// Builds the [`PlanStep`] for a pattern given its chosen key side.
fn make_step(pat: &Pattern, key: KeySide) -> PlanStep {
    match key {
        KeySide::Subject => PlanStep {
            predicate: pat.p,
            order: SortOrder::SO,
            key: pat.s,
            value: pat.o,
        },
        KeySide::Object => PlanStep {
            predicate: pat.p,
            order: SortOrder::OS,
            key: pat.o,
            value: pat.s,
        },
    }
}

/// Driver key-side choice: constants win (Example 3.2), otherwise key on
/// the subject.
fn driver_key(pat: &Pattern) -> KeySide {
    match (pat.s, pat.o) {
        (Atom::Const(_), _) => KeySide::Subject,
        (_, Atom::Const(_)) => KeySide::Object,
        _ => KeySide::Subject,
    }
}

#[derive(Debug, Clone, Copy)]
struct DpEntry {
    cost: f64,
    rows: f64,
    /// Pattern added last and its key side.
    last: usize,
    last_key: KeySide,
    prev_mask: u32,
}

/// Exhaustive DP is exact up to this many patterns; beyond it a greedy
/// pass runs (WatDiv's largest evaluated query has 10).
const DP_LIMIT: usize = 12;

/// Chooses a left-deep join order and replica per step, returning a
/// validated [`PhysicalPlan`].
pub fn optimize(
    stats: &Stats,
    patterns: &[Pattern],
    num_vars: usize,
    projection: Vec<VarId>,
) -> Result<PhysicalPlan, OptimizeError> {
    let (order, keys) = choose_order(stats, patterns, num_vars)?;
    let steps: Vec<PlanStep> = order
        .iter()
        .zip(&keys)
        .map(|(&i, &k)| make_step(&patterns[i], k))
        .collect();
    PhysicalPlan::new(steps, num_vars, projection)
        .map_err(|e| OptimizeError::Internal(e.to_string()))
}

/// The ordering core, exposed for tests: returns pattern indexes in
/// execution order and the key side per step.
fn choose_order(
    stats: &Stats,
    patterns: &[Pattern],
    num_vars: usize,
) -> Result<(Vec<usize>, Vec<KeySide>), OptimizeError> {
    if patterns.is_empty() {
        return Err(OptimizeError::Empty);
    }
    let est = Est { stats, patterns };
    if patterns.len() > DP_LIMIT {
        return greedy(&est, num_vars);
    }

    let n = patterns.len();
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mut table: Vec<Option<DpEntry>> = vec![None; 1usize << n];

    // Seed single-pattern states (drivers).
    for (i, pat) in patterns.iter().enumerate() {
        let rows = est.pattern_card(pat);
        let entry = DpEntry {
            cost: rows,
            rows,
            last: i,
            last_key: driver_key(pat),
            prev_mask: 0,
        };
        table[1usize << i] = Some(entry);
    }

    // Expand masks in increasing popcount order (index order suffices:
    // any subset < superset numerically when adding a bit? No — iterate
    // all masks ascending; every proper subset of m is < m, so its entry
    // is final by the time m is processed).
    for mask in 1u32..=full {
        let Some(entry) = table[mask as usize] else {
            continue;
        };
        // Reconstruct variable sources along this state's best path.
        let sources = sources_for(&est, &table, mask, num_vars);
        for (j, pat) in patterns.iter().enumerate() {
            if mask & (1 << j) != 0 {
                continue;
            }
            let Some(step) = est.best_probe(pat, &sources, entry.rows) else {
                continue;
            };
            let nm = mask | (1 << j);
            let cand = DpEntry {
                cost: entry.cost + step.cost,
                rows: step.out_rows,
                last: j,
                last_key: step.key,
                prev_mask: mask,
            };
            if table[nm as usize].is_none_or(|e| cand.cost < e.cost) {
                table[nm as usize] = Some(cand);
            }
        }
    }

    let Some(_) = table[full as usize] else {
        return Err(OptimizeError::Disconnected);
    };
    // Walk back the best path.
    let mut order = Vec::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let e = table[mask as usize].expect("path exists");
        order.push(e.last);
        keys.push(e.last_key);
        mask = e.prev_mask;
    }
    order.reverse();
    keys.reverse();
    Ok((order, keys))
}

/// Recomputes the variable sources for the best path leading to `mask`.
fn sources_for(
    est: &Est<'_>,
    table: &[Option<DpEntry>],
    mask: u32,
    num_vars: usize,
) -> Vec<Option<VarSource>> {
    let mut path = Vec::new();
    let mut m = mask;
    while m != 0 {
        let e = table[m as usize].expect("subset entries are final");
        path.push(e.last);
        m = e.prev_mask;
    }
    let mut sources = vec![None; num_vars];
    for &i in path.iter().rev() {
        bind_sources(est, &est.patterns[i], &mut sources);
    }
    sources
}

/// Greedy fallback for very large BGPs: cheapest driver, then repeatedly
/// the cheapest probeable pattern.
fn greedy(est: &Est<'_>, num_vars: usize) -> Result<(Vec<usize>, Vec<KeySide>), OptimizeError> {
    let n = est.patterns.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    // Driver: smallest estimated cardinality.
    let (di, _) = remaining
        .iter()
        .map(|&i| (i, est.pattern_card(&est.patterns[i])))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty");
    remaining.retain(|&i| i != di);
    let mut order = vec![di];
    let mut keys = vec![driver_key(&est.patterns[di])];
    let mut sources = vec![None; num_vars];
    bind_sources(est, &est.patterns[di], &mut sources);
    let mut rows = est.pattern_card(&est.patterns[di]);

    while !remaining.is_empty() {
        let mut best: Option<(usize, StepEst)> = None;
        for &j in &remaining {
            if let Some(s) = est.best_probe(&est.patterns[j], &sources, rows) {
                if best.as_ref().is_none_or(|(_, b)| s.cost < b.cost) {
                    best = Some((j, s));
                }
            }
        }
        let Some((j, s)) = best else {
            return Err(OptimizeError::Disconnected);
        };
        remaining.retain(|&i| i != j);
        order.push(j);
        keys.push(s.key);
        bind_sources(est, &est.patterns[j], &mut sources);
        rows = s.out_rows;
    }
    Ok((order, keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;
    use parj_store::StoreBuilder;
    use parj_store::TripleStore;

    /// worksFor is selective per-object; teaches is broad. The optimizer
    /// should drive Example 3.2's query from the constant-object
    /// worksFor pattern.
    fn store() -> TripleStore {
        let mut b = StoreBuilder::new();
        for i in 0..100u32 {
            b.add_term_triple(
                &Term::iri(format!("prof{i}")),
                &Term::iri("teaches"),
                &Term::iri(format!("course{}", i % 40)),
            );
            b.add_term_triple(
                &Term::iri(format!("prof{i}")),
                &Term::iri("worksFor"),
                &Term::iri(format!("uni{}", i % 10)),
            );
        }
        b.build()
    }

    fn ids(s: &TripleStore) -> (Id, Id, Id) {
        (
            s.dict().predicate_id(&Term::iri("teaches")).unwrap(),
            s.dict().predicate_id(&Term::iri("worksFor")).unwrap(),
            s.dict().resource_id(&Term::iri("uni3")).unwrap(),
        )
    }

    #[test]
    fn example32_filter_drives_the_plan() {
        let s = store();
        let stats = Stats::build(&s);
        let (teaches, works, uni3) = ids(&s);
        // ?x teaches ?z . ?x worksFor uni3
        let patterns = [
            Pattern {
                s: Atom::Var(0),
                p: teaches,
                o: Atom::Var(1),
            },
            Pattern {
                s: Atom::Var(0),
                p: works,
                o: Atom::Const(uni3),
            },
        ];
        let plan = optimize(&stats, &patterns, 2, vec![0, 1]).unwrap();
        // Driver must be the selective worksFor pattern on its O-S
        // replica, keyed by the constant.
        assert_eq!(plan.steps()[0].predicate, works);
        assert_eq!(plan.steps()[0].order, SortOrder::OS);
        assert_eq!(plan.steps()[0].key, Atom::Const(uni3));
        assert_eq!(plan.steps()[1].predicate, teaches);
    }

    #[test]
    fn unconstrained_pair_keeps_both() {
        let s = store();
        let stats = Stats::build(&s);
        let (teaches, works, _) = ids(&s);
        let patterns = [
            Pattern {
                s: Atom::Var(0),
                p: teaches,
                o: Atom::Var(1),
            },
            Pattern {
                s: Atom::Var(0),
                p: works,
                o: Atom::Var(2),
            },
        ];
        let plan = optimize(&stats, &patterns, 3, vec![0, 1, 2]).unwrap();
        assert_eq!(plan.steps().len(), 2);
        // Probe step must key on the shared variable ?0 (subject side of
        // either predicate → SO replica).
        assert_eq!(plan.steps()[1].order, SortOrder::SO);
        assert_eq!(plan.steps()[1].key, Atom::Var(0));
    }

    #[test]
    fn disconnected_rejected() {
        let s = store();
        let stats = Stats::build(&s);
        let (teaches, works, _) = ids(&s);
        let patterns = [
            Pattern {
                s: Atom::Var(0),
                p: teaches,
                o: Atom::Var(1),
            },
            Pattern {
                s: Atom::Var(2),
                p: works,
                o: Atom::Var(3),
            },
        ];
        assert_eq!(
            optimize(&stats, &patterns, 4, vec![0]).unwrap_err(),
            OptimizeError::Disconnected
        );
    }

    #[test]
    fn empty_rejected() {
        let s = store();
        let stats = Stats::build(&s);
        assert_eq!(
            optimize(&stats, &[], 0, vec![]).unwrap_err(),
            OptimizeError::Empty
        );
    }

    #[test]
    fn constant_only_pattern_is_probeable_even_disconnected() {
        // An existence-check pattern with constants needs no shared var.
        let s = store();
        let stats = Stats::build(&s);
        let (teaches, works, uni3) = ids(&s);
        let prof = s.dict().resource_id(&Term::iri("prof3")).unwrap();
        let patterns = [
            Pattern {
                s: Atom::Var(0),
                p: teaches,
                o: Atom::Var(1),
            },
            Pattern {
                s: Atom::Const(prof),
                p: works,
                o: Atom::Const(uni3),
            },
        ];
        let plan = optimize(&stats, &patterns, 2, vec![0]).unwrap();
        assert_eq!(plan.steps().len(), 2);
    }

    #[test]
    fn greedy_handles_large_bgps() {
        let s = store();
        let stats = Stats::build(&s);
        let (teaches, works, _) = ids(&s);
        // A 14-pattern chain alternating predicates: ?v0-?v1-?v2-…
        let mut patterns = Vec::new();
        for i in 0..14u16 {
            patterns.push(Pattern {
                s: Atom::Var(i),
                p: if i % 2 == 0 { teaches } else { works },
                o: Atom::Var(i + 1),
            });
        }
        let plan = optimize(&stats, &patterns, 15, vec![0, 14]).unwrap();
        assert_eq!(plan.steps().len(), 14);
    }

    #[test]
    fn self_loop_pattern() {
        let mut b = StoreBuilder::new();
        b.add_term_triple(&Term::iri("n1"), &Term::iri("link"), &Term::iri("n1"));
        b.add_term_triple(&Term::iri("n1"), &Term::iri("link"), &Term::iri("n2"));
        let s = b.build();
        let stats = Stats::build(&s);
        let link = s.dict().predicate_id(&Term::iri("link")).unwrap();
        let patterns = [Pattern {
            s: Atom::Var(0),
            p: link,
            o: Atom::Var(0),
        }];
        let plan = optimize(&stats, &patterns, 1, vec![0]).unwrap();
        assert_eq!(plan.steps().len(), 1);
    }

    #[test]
    fn empty_predicate_partitions_are_planned() {
        // A predicate with a dictionary entry but no triples has zero
        // estimated cardinality; the plan must still be valid (and the
        // executor will produce zero rows).
        let mut b = StoreBuilder::new();
        b.dict_mut().encode_predicate(&Term::iri("ghost"));
        b.add_term_triple(&Term::iri("a"), &Term::iri("real"), &Term::iri("b"));
        let s = b.build();
        let stats = Stats::build(&s);
        let ghost = s.dict().predicate_id(&Term::iri("ghost")).unwrap();
        let real = s.dict().predicate_id(&Term::iri("real")).unwrap();
        let patterns = [
            Pattern {
                s: Atom::Var(0),
                p: real,
                o: Atom::Var(1),
            },
            Pattern {
                s: Atom::Var(1),
                p: ghost,
                o: Atom::Var(2),
            },
        ];
        let plan = optimize(&stats, &patterns, 3, vec![0, 1, 2]).unwrap();
        assert_eq!(plan.steps().len(), 2);
    }

    #[test]
    fn object_bound_probe_uses_os_replica() {
        // When only the object side of a pattern is bound, the probe
        // must key on the O-S replica.
        let s = store();
        let stats = Stats::build(&s);
        let (teaches, works, _) = ids(&s);
        // ?a teaches ?x . ?b worksFor ?x — second step can only be keyed
        // on ?x, the object of worksFor? No: worksFor's object is ?x in
        // pattern 2? Construct: ?a teaches ?x (binds ?x as object), then
        // ?b worksFor ?x probes worksFor keyed on its object.
        let patterns = [
            Pattern {
                s: Atom::Var(0),
                p: teaches,
                o: Atom::Var(1),
            },
            Pattern {
                s: Atom::Var(2),
                p: works,
                o: Atom::Var(1),
            },
        ];
        let plan = optimize(&stats, &patterns, 3, vec![0, 1, 2]).unwrap();
        let probe = &plan.steps()[1];
        assert_eq!(probe.key, Atom::Var(1));
        // Whichever pattern probes second must key on the bound ?1 side.
        match probe.predicate {
            p if p == works => assert_eq!(probe.order, SortOrder::OS),
            p if p == teaches => assert_eq!(probe.order, SortOrder::OS),
            _ => panic!("unexpected predicate"),
        }
    }

    #[test]
    fn chain_query_orders_by_selectivity() {
        // A 3-chain where the middle pattern has a constant: the plan
        // must start from a constant-keyed pattern, not the broad scan.
        let s = store();
        let stats = Stats::build(&s);
        let (teaches, works, uni3) = ids(&s);
        let patterns = [
            Pattern {
                s: Atom::Var(0),
                p: teaches,
                o: Atom::Var(1),
            },
            Pattern {
                s: Atom::Var(0),
                p: works,
                o: Atom::Const(uni3),
            },
            Pattern {
                s: Atom::Var(2),
                p: works,
                o: Atom::Var(3),
            },
        ];
        // ?2/?3 share no variable with the rest, but the constant-keyed
        // worksFor pattern bridges the pipeline: the cross product is
        // executable (each component keyed independently), so this must
        // optimize successfully.
        let plan = optimize(&stats, &patterns, 4, vec![0]).unwrap();
        assert_eq!(plan.steps().len(), 3);
        // Connected version: ?2 replaced by ?1.
        let patterns = [
            patterns[0],
            patterns[1],
            Pattern {
                s: Atom::Var(1),
                p: works,
                o: Atom::Var(3),
            },
        ];
        let plan = optimize(&stats, &patterns, 4, vec![0, 1, 3]).unwrap();
        assert_eq!(plan.steps()[0].key, Atom::Const(uni3));
    }
}
