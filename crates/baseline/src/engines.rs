//! The baseline execution engines: hash join, sort-merge join, nested
//! loops — all with full intermediate materialization, in contrast to
//! PARJ's pipelined probes.

use std::collections::HashMap;

use parj_dict::Id;
use parj_join::{Atom, VarId};
use parj_optimizer::Pattern;
use parj_store::TripleStore;

use crate::relation::Relation;

/// Common interface of the competitor stand-ins.
pub trait BaselineEngine {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Evaluates the ordered pattern list and returns all solution rows
    /// over the relation's variables.
    fn run(&self, store: &TripleStore, patterns: &[Pattern]) -> Relation;

    /// Solution count (SPARQL multiset semantics, no projection).
    fn run_count(&self, store: &TripleStore, patterns: &[Pattern]) -> u64 {
        let rel = self.run(store, patterns);
        if rel.vars.is_empty() {
            // All patterns fully constant: 1 if non-contradictory.
            u64::from(!rel.data.is_empty())
        } else {
            rel.len() as u64
        }
    }
}

/// Shared join columns between two relations: `(left_col, right_col)`.
fn shared_cols(left: &Relation, right: &Relation) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (rc, &rv) in right.vars.iter().enumerate() {
        if let Some(lc) = left.col_of(rv) {
            out.push((lc, rc));
        }
    }
    out
}

/// Output schema of a natural join: left vars then right-only vars; the
/// second element lists right columns to append.
fn output_schema(left: &Relation, right: &Relation) -> (Vec<VarId>, Vec<usize>) {
    let mut vars = left.vars.clone();
    let mut extra = Vec::new();
    for (rc, &rv) in right.vars.iter().enumerate() {
        if left.col_of(rv).is_none() {
            vars.push(rv);
            extra.push(rc);
        }
    }
    (vars, extra)
}

/// Fully-constant patterns act as boolean filters; evaluate them first.
/// Returns `false` if any fails (empty result).
fn apply_constant_patterns(store: &TripleStore, patterns: &[Pattern]) -> (Vec<Pattern>, bool) {
    let mut rest = Vec::with_capacity(patterns.len());
    for p in patterns {
        if matches!((p.s, p.o), (Atom::Const(_), Atom::Const(_))) {
            if !Relation::exists(store, p) {
                return (rest, false);
            }
        } else {
            rest.push(*p);
        }
    }
    (rest, true)
}

/// Builds a hash key from join columns.
#[inline]
fn key_of(row: &[Id], cols: &[usize]) -> Vec<Id> {
    cols.iter().map(|&c| row[c]).collect()
}

/// TriAD stand-in: every join materializes both inputs and builds a hash
/// table on the smaller one. No order is exploited; every intermediate
/// result lives in memory at once (this is why the paper's TriAD runs
/// out of memory on WatDiv IL-3-8).
///
/// The probe phase optionally runs on `threads` workers (chunked over
/// the probe side), modelling TriAD's parallel workers; the build phase
/// stays serial, modelling its per-join synchronization barrier.
#[derive(Debug, Clone, Copy)]
pub struct HashJoinEngine {
    /// Probe-phase worker threads (1 = serial).
    pub threads: usize,
}

impl Default for HashJoinEngine {
    fn default() -> Self {
        Self { threads: 1 }
    }
}

impl HashJoinEngine {
    /// A hash-join engine probing with `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }
}

impl BaselineEngine for HashJoinEngine {
    fn name(&self) -> &'static str {
        "hash-join"
    }

    fn run(&self, store: &TripleStore, patterns: &[Pattern]) -> Relation {
        let (rest, ok) = apply_constant_patterns(store, patterns);
        if !ok {
            return Relation::default();
        }
        if rest.is_empty() {
            // Purely constant query that held: encode "one empty row".
            return Relation {
                vars: Vec::new(),
                data: vec![0],
            };
        }
        let mut acc = Relation::scan_pattern(store, &rest[0]);
        for pat in &rest[1..] {
            let right = Relation::scan_pattern(store, pat);
            acc = hash_join_n(&acc, &right, self.threads);
            if acc.is_empty() {
                return acc;
            }
        }
        acc
    }
}

fn hash_join(left: &Relation, right: &Relation) -> Relation {
    hash_join_n(left, right, 1)
}

/// Hash join with a parallel probe phase: the build side is hashed
/// serially (TriAD's synchronization barrier), then `threads` workers
/// probe disjoint chunks and their outputs are concatenated.
fn hash_join_n(left: &Relation, right: &Relation, threads: usize) -> Relation {
    let joins = shared_cols(left, right);
    let (vars, extra) = output_schema(left, right);
    let mut out = Relation {
        vars,
        data: Vec::new(),
    };
    if joins.is_empty() {
        // Cross product.
        for li in 0..left.len() {
            for ri in 0..right.len() {
                out.data.extend_from_slice(left.row(li));
                for &rc in &extra {
                    out.data.push(right.row(ri)[rc]);
                }
            }
        }
        return out;
    }
    let lcols: Vec<usize> = joins.iter().map(|&(l, _)| l).collect();
    let rcols: Vec<usize> = joins.iter().map(|&(_, r)| r).collect();
    // Build on the smaller input (standard practice; TriAD does the
    // same per worker). Normalize so `build` is the hashed side.
    let build_is_left = left.len() <= right.len();
    let (build, bcols, probe, pcols) = if build_is_left {
        (left, &lcols, right, &rcols)
    } else {
        (right, &rcols, left, &lcols)
    };
    let mut table: HashMap<Vec<Id>, Vec<usize>> = HashMap::new();
    for bi in 0..build.len() {
        table
            .entry(key_of(build.row(bi), bcols))
            .or_default()
            .push(bi);
    }
    // Emits the output row for a (left-index, right-index) match.
    let emit = |li: usize, ri: usize, data: &mut Vec<Id>| {
        data.extend_from_slice(left.row(li));
        for &rc in &extra {
            data.push(right.row(ri)[rc]);
        }
    };
    let probe_chunk = |range: std::ops::Range<usize>| -> Vec<Id> {
        let mut data = Vec::new();
        for pi in range {
            if let Some(bs) = table.get(&key_of(probe.row(pi), pcols)) {
                for &bi in bs {
                    let (li, ri) = if build_is_left { (bi, pi) } else { (pi, bi) };
                    emit(li, ri, &mut data);
                }
            }
        }
        data
    };
    let n = probe.len();
    if threads <= 1 || n < 1024 {
        out.data = probe_chunk(0..n);
    } else {
        let chunk = n.div_ceil(threads);
        let parts: Vec<Vec<Id>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = (t * chunk).min(n);
                    let hi = ((t + 1) * chunk).min(n);
                    scope.spawn(move || probe_chunk(lo..hi))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe worker"))
                .collect()
        });
        for part in parts {
            out.data.extend_from_slice(&part);
        }
    }
    out
}

/// RDF-3X stand-in: sort-merge joins. Each step sorts both the
/// accumulated intermediate and the pattern extension on the join
/// columns, then merges. Unlike PARJ it cannot reuse partial order
/// across steps — the sorts are the architectural cost the adaptive
/// method avoids (§2: "it exploits initial ordering ... such that it
/// completely avoids hashing or sorting during query execution").
#[derive(Debug, Clone, Copy)]
pub struct MergeJoinEngine;

impl BaselineEngine for MergeJoinEngine {
    fn name(&self) -> &'static str {
        "merge-join"
    }

    fn run(&self, store: &TripleStore, patterns: &[Pattern]) -> Relation {
        let (rest, ok) = apply_constant_patterns(store, patterns);
        if !ok {
            return Relation::default();
        }
        if rest.is_empty() {
            return Relation {
                vars: Vec::new(),
                data: vec![0],
            };
        }
        let mut acc = Relation::scan_pattern(store, &rest[0]);
        for pat in &rest[1..] {
            let right = Relation::scan_pattern(store, pat);
            acc = merge_join(acc, right);
            if acc.is_empty() {
                return acc;
            }
        }
        acc
    }
}

fn merge_join(mut left: Relation, mut right: Relation) -> Relation {
    let joins = shared_cols(&left, &right);
    if joins.is_empty() {
        return hash_join(&left, &right); // cross product path
    }
    let lcols: Vec<usize> = joins.iter().map(|&(l, _)| l).collect();
    let rcols: Vec<usize> = joins.iter().map(|&(_, r)| r).collect();
    left.sort_by_cols(&lcols);
    right.sort_by_cols(&rcols);
    let (vars, extra) = output_schema(&left, &right);
    let mut out = Relation {
        vars,
        data: Vec::new(),
    };
    let cmp = |l: &[Id], r: &[Id]| -> std::cmp::Ordering {
        for (&lc, &rc) in lcols.iter().zip(&rcols) {
            match l[lc].cmp(&r[rc]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    };
    let (mut li, mut ri) = (0usize, 0usize);
    while li < left.len() && ri < right.len() {
        match cmp(left.row(li), right.row(ri)) {
            std::cmp::Ordering::Less => li += 1,
            std::cmp::Ordering::Greater => ri += 1,
            std::cmp::Ordering::Equal => {
                // Find both runs of equal keys and emit their product.
                let mut le = li + 1;
                while le < left.len() && cmp(left.row(le), right.row(ri)).is_eq() {
                    le += 1;
                }
                let mut re = ri + 1;
                while re < right.len() && cmp(left.row(li), right.row(re)).is_eq() {
                    re += 1;
                }
                for l in li..le {
                    for r in ri..re {
                        out.data.extend_from_slice(left.row(l));
                        for &rc in &extra {
                            out.data.push(right.row(r)[rc]);
                        }
                    }
                }
                li = le;
                ri = re;
            }
        }
    }
    out
}

/// Quadratic nested-loops control (tests and tiny inputs only).
#[derive(Debug, Clone, Copy)]
pub struct NestedLoopEngine;

impl BaselineEngine for NestedLoopEngine {
    fn name(&self) -> &'static str {
        "nested-loop"
    }

    fn run(&self, store: &TripleStore, patterns: &[Pattern]) -> Relation {
        let (rest, ok) = apply_constant_patterns(store, patterns);
        if !ok {
            return Relation::default();
        }
        if rest.is_empty() {
            return Relation {
                vars: Vec::new(),
                data: vec![0],
            };
        }
        let mut acc = Relation::scan_pattern(store, &rest[0]);
        for pat in &rest[1..] {
            let right = Relation::scan_pattern(store, pat);
            let joins = shared_cols(&acc, &right);
            let (vars, extra) = output_schema(&acc, &right);
            let mut out = Relation {
                vars,
                data: Vec::new(),
            };
            for li in 0..acc.len() {
                let lrow = acc.row(li);
                'rows: for ri in 0..right.len() {
                    let rrow = right.row(ri);
                    for &(lc, rc) in &joins {
                        if lrow[lc] != rrow[rc] {
                            continue 'rows;
                        }
                    }
                    out.data.extend_from_slice(lrow);
                    for &rc in &extra {
                        out.data.push(rrow[rc]);
                    }
                }
            }
            acc = out;
            if acc.is_empty() {
                return acc;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_eval;
    use parj_dict::Term;
    use parj_store::StoreBuilder;

    fn store() -> TripleStore {
        let mut b = StoreBuilder::new();
        for (s, p, o) in [
            ("s1", "teaches", "c1"),
            ("s1", "teaches", "c2"),
            ("s2", "teaches", "c1"),
            ("s3", "teaches", "c3"),
            ("s1", "works", "u1"),
            ("s2", "works", "u2"),
            ("s3", "works", "u2"),
            ("t1", "takes", "c1"),
            ("t1", "takes", "c3"),
            ("t2", "takes", "c2"),
        ] {
            b.add_term_triple(&Term::iri(s), &Term::iri(p), &Term::iri(o));
        }
        b.build()
    }

    fn pid(s: &TripleStore, n: &str) -> Id {
        s.dict().predicate_id(&Term::iri(n)).unwrap()
    }

    fn rid(s: &TripleStore, n: &str) -> Id {
        s.dict().resource_id(&Term::iri(n)).unwrap()
    }

    fn engines() -> Vec<Box<dyn BaselineEngine>> {
        vec![
            Box::new(HashJoinEngine::default()),
            Box::new(MergeJoinEngine),
            Box::new(NestedLoopEngine),
        ]
    }

    fn check(store: &TripleStore, patterns: &[Pattern], num_vars: usize) {
        let expected = reference_eval(store, patterns, num_vars).len() as u64;
        for e in engines() {
            assert_eq!(
                e.run_count(store, patterns),
                expected,
                "{} disagreed with oracle",
                e.name()
            );
        }
    }

    #[test]
    fn two_way_subject_join() {
        let s = store();
        check(
            &s,
            &[
                Pattern {
                    s: Atom::Var(0),
                    p: pid(&s, "teaches"),
                    o: Atom::Var(1),
                },
                Pattern {
                    s: Atom::Var(0),
                    p: pid(&s, "works"),
                    o: Atom::Var(2),
                },
            ],
            3,
        );
    }

    #[test]
    fn object_object_join() {
        let s = store();
        check(
            &s,
            &[
                Pattern {
                    s: Atom::Var(0),
                    p: pid(&s, "teaches"),
                    o: Atom::Var(1),
                },
                Pattern {
                    s: Atom::Var(2),
                    p: pid(&s, "takes"),
                    o: Atom::Var(1),
                },
            ],
            3,
        );
    }

    #[test]
    fn constant_filter_and_chain() {
        let s = store();
        check(
            &s,
            &[
                Pattern {
                    s: Atom::Var(0),
                    p: pid(&s, "works"),
                    o: Atom::Const(rid(&s, "u2")),
                },
                Pattern {
                    s: Atom::Var(0),
                    p: pid(&s, "teaches"),
                    o: Atom::Var(1),
                },
                Pattern {
                    s: Atom::Var(2),
                    p: pid(&s, "takes"),
                    o: Atom::Var(1),
                },
            ],
            3,
        );
    }

    #[test]
    fn fully_constant_patterns() {
        let s = store();
        let present = Pattern {
            s: Atom::Const(rid(&s, "s1")),
            p: pid(&s, "works"),
            o: Atom::Const(rid(&s, "u1")),
        };
        let absent = Pattern {
            s: Atom::Const(rid(&s, "s1")),
            p: pid(&s, "works"),
            o: Atom::Const(rid(&s, "u2")),
        };
        let var_pat = Pattern {
            s: Atom::Var(0),
            p: pid(&s, "teaches"),
            o: Atom::Var(1),
        };
        for e in engines() {
            assert_eq!(e.run_count(&s, &[present]), 1, "{}", e.name());
            assert_eq!(e.run_count(&s, &[absent]), 0, "{}", e.name());
            assert_eq!(e.run_count(&s, &[present, var_pat]), 4, "{}", e.name());
            assert_eq!(e.run_count(&s, &[absent, var_pat]), 0, "{}", e.name());
        }
    }

    #[test]
    fn cross_product() {
        let s = store();
        // works(?0, u1) × takes(?1, ?2): 1 × 3 rows.
        check(
            &s,
            &[
                Pattern {
                    s: Atom::Var(0),
                    p: pid(&s, "works"),
                    o: Atom::Const(rid(&s, "u1")),
                },
                Pattern {
                    s: Atom::Var(1),
                    p: pid(&s, "takes"),
                    o: Atom::Var(2),
                },
            ],
            3,
        );
    }

    #[test]
    fn empty_result_short_circuits() {
        let s = store();
        for e in engines() {
            let rel = e.run(
                &s,
                &[
                    Pattern {
                        s: Atom::Var(0),
                        p: pid(&s, "teaches"),
                        o: Atom::Const(rid(&s, "u1")), // nobody teaches u1
                    },
                    Pattern {
                        s: Atom::Var(0),
                        p: pid(&s, "works"),
                        o: Atom::Var(1),
                    },
                ],
            );
            assert!(rel.is_empty(), "{}", e.name());
        }
    }
}
