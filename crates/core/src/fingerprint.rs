//! Canonical query fingerprints for the plan/result cache.
//!
//! Two BGPs that differ only in variable *names* or pattern *order*
//! describe the same join; the cache should serve one from the other's
//! entry. After parse+translate, [`canonicalize_query`] rewrites a
//! [`TranslatedQuery`] into a canonical form — variable slots
//! renumbered by a deterministic traversal, patterns reordered within
//! each set — and [`query_fingerprint`] serializes that form into a
//! stable byte key.
//!
//! ## Canonicalization rules
//!
//! 1. Canonical variable ids are assigned in this order: projection
//!    variables (in output order), then `ORDER BY` variables (in
//!    priority order), then pattern variables as patterns are visited.
//! 2. Within each pattern set, patterns are picked greedily: the next
//!    pattern is the one with the smallest `(subject, predicate,
//!    object)` key, where a constant sorts before an
//!    already-canonicalized variable, which sorts before a
//!    not-yet-seen variable; the original position breaks exact ties.
//!    Each picked pattern then assigns canonical ids to its unseen
//!    variables (subject before object).
//! 3. The fingerprint covers the *semantic* shape — flags
//!    (`DISTINCT`, hierarchy dedup, full-row materialization),
//!    projection, `ORDER BY`, branch structure, and the canonical
//!    patterns. It deliberately excludes `LIMIT`/`OFFSET` (result-cache
//!    keys append them separately so one plan entry serves every
//!    paging window) and all variable *names*.
//!
//! The rewrite is **sound** by construction: it is a bijective
//! renumbering plus a reorder of set elements whose union semantics is
//! order-independent, so the canonical query returns byte-identical
//! results. It is *best-effort complete*: most name/order variations
//! of the same BGP converge to one fingerprint, but a pathological tie
//! (two structurally indistinguishable patterns) falls back to input
//! order — which can only split equivalent queries across two entries,
//! never conflate different ones.

use crate::translate::TranslatedQuery;
use parj_join::{Atom, VarId};
use parj_optimizer::Pattern;

/// Bumped when the canonical form or serialization changes, so stale
/// serialized keys from other versions can never collide.
const FINGERPRINT_VERSION: u8 = 1;

/// Sort key for one atom under a partial canonical assignment.
/// Constants first (by id), then assigned variables (by canonical id),
/// then unassigned variables (all equal).
fn atom_key(a: Atom, assigned: &[Option<VarId>]) -> (u8, u64) {
    match a {
        Atom::Const(c) => (0, c as u64),
        Atom::Var(v) => match assigned[v as usize] {
            Some(c) => (1, c as u64),
            None => (2, 0),
        },
    }
}

/// Rewrites `tq` into its canonical form: variables renumbered and
/// patterns reordered per the module rules. Idempotent; results are
/// byte-identical to the original query's.
pub fn canonicalize_query(tq: &mut TranslatedQuery) {
    let mut assigned: Vec<Option<VarId>> = vec![None; tq.num_vars];
    let mut next: VarId = 0;
    let assign = |v: VarId, assigned: &mut Vec<Option<VarId>>, next: &mut VarId| {
        if assigned[v as usize].is_none() {
            assigned[v as usize] = Some(*next);
            *next += 1;
        }
    };

    for &v in &tq.projection {
        assign(v, &mut assigned, &mut next);
    }
    for &(v, _) in &tq.order_by {
        assign(v, &mut assigned, &mut next);
    }

    // Reorder each pattern set greedily under the growing assignment.
    let mut new_sets: Vec<Vec<Pattern>> = Vec::with_capacity(tq.pattern_sets.len());
    for set in &tq.pattern_sets {
        let mut remaining: Vec<(usize, &Pattern)> = set.iter().enumerate().collect();
        let mut ordered: Vec<Pattern> = Vec::with_capacity(set.len());
        while !remaining.is_empty() {
            let best = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, (orig, p))| {
                    (
                        atom_key(p.s, &assigned),
                        p.p,
                        atom_key(p.o, &assigned),
                        *orig,
                    )
                })
                .map(|(i, _)| i)
                .unwrap_or(0);
            let (_, pat) = remaining.remove(best);
            if let Atom::Var(v) = pat.s {
                assign(v, &mut assigned, &mut next);
            }
            if let Atom::Var(v) = pat.o {
                assign(v, &mut assigned, &mut next);
            }
            ordered.push(*pat);
        }
        new_sets.push(ordered);
    }

    // Every subject/object variable occurs in some pattern, so the
    // assignment is total; tolerate gaps anyway (identity for unseen).
    for (old, slot) in assigned.iter_mut().enumerate() {
        if slot.is_none() {
            *slot = Some(next);
            next += 1;
            debug_assert!(old < tq.num_vars);
        }
    }
    let remap = |v: VarId| -> VarId {
        match assigned[v as usize] {
            Some(c) => c,
            None => v,
        }
    };

    for set in &mut new_sets {
        for p in set.iter_mut() {
            if let Atom::Var(v) = p.s {
                p.s = Atom::Var(remap(v));
            }
            if let Atom::Var(v) = p.o {
                p.o = Atom::Var(remap(v));
            }
        }
    }
    tq.pattern_sets = new_sets;
    for v in &mut tq.projection {
        *v = remap(*v);
    }
    for (v, _) in &mut tq.order_by {
        *v = remap(*v);
    }
    let mut names = vec![String::new(); tq.num_vars];
    for (old, name) in tq.var_names.iter().enumerate() {
        names[remap(old as VarId) as usize] = name.clone();
    }
    tq.var_names = names;
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_atom(out: &mut Vec<u8>, a: Atom) {
    match a {
        Atom::Var(v) => {
            out.push(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Atom::Const(c) => {
            out.push(1);
            push_u64(out, c as u64);
        }
    }
}

/// Serializes the canonical shape of `tq` into a stable byte key.
/// Call [`canonicalize_query`] first — the fingerprint hashes whatever
/// form it is given. `LIMIT`/`OFFSET` and variable names are excluded
/// by design (see the module docs).
pub fn query_fingerprint(tq: &TranslatedQuery) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(FINGERPRINT_VERSION);
    push_u64(&mut out, tq.num_vars as u64);
    out.push(
        u8::from(tq.distinct) | (u8::from(tq.dedup_full) << 1) | (u8::from(tq.full_rows) << 2),
    );
    push_u64(&mut out, tq.projection.len() as u64);
    for &v in &tq.projection {
        out.extend_from_slice(&v.to_le_bytes());
    }
    push_u64(&mut out, tq.order_by.len() as u64);
    for &(v, desc) in &tq.order_by {
        out.extend_from_slice(&v.to_le_bytes());
        out.push(u8::from(desc));
    }
    push_u64(&mut out, tq.pattern_sets.len() as u64);
    for (set, &branch) in tq.pattern_sets.iter().zip(&tq.set_branch) {
        push_u64(&mut out, branch as u64);
        push_u64(&mut out, set.len() as u64);
        for p in set {
            push_atom(&mut out, p.s);
            push_u64(&mut out, p.p as u64);
            push_atom(&mut out, p.o);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tq(
        pattern_sets: Vec<Vec<Pattern>>,
        num_vars: usize,
        projection: Vec<VarId>,
    ) -> TranslatedQuery {
        let set_branch = vec![0; pattern_sets.len()];
        TranslatedQuery {
            num_vars,
            var_names: (0..num_vars).map(|i| format!("v{i}")).collect(),
            proj_names: projection.iter().map(|v| format!("v{v}")).collect(),
            projection,
            distinct: false,
            order_by: Vec::new(),
            offset: None,
            limit: None,
            pattern_sets,
            set_branch,
            dedup_full: false,
            full_rows: false,
        }
    }

    fn pat(s: Atom, p: u64, o: Atom) -> Pattern {
        Pattern {
            s,
            p: p as parj_dict::Id,
            o,
        }
    }

    #[test]
    fn renamed_variables_share_a_fingerprint() {
        // { ?x p ?y . ?y q ?z } with two different numberings.
        let mut a = tq(
            vec![vec![
                pat(Atom::Var(0), 7, Atom::Var(1)),
                pat(Atom::Var(1), 9, Atom::Var(2)),
            ]],
            3,
            vec![0, 2],
        );
        let mut b = tq(
            vec![vec![
                pat(Atom::Var(2), 7, Atom::Var(0)),
                pat(Atom::Var(0), 9, Atom::Var(1)),
            ]],
            3,
            vec![2, 1],
        );
        canonicalize_query(&mut a);
        canonicalize_query(&mut b);
        assert_eq!(query_fingerprint(&a), query_fingerprint(&b));
    }

    #[test]
    fn reordered_patterns_share_a_fingerprint() {
        let p1 = pat(Atom::Var(0), 7, Atom::Var(1));
        let p2 = pat(Atom::Var(0), 9, Atom::Const(42));
        let mut a = tq(vec![vec![p1, p2]], 2, vec![0, 1]);
        let mut b = tq(vec![vec![p2, p1]], 2, vec![0, 1]);
        canonicalize_query(&mut a);
        canonicalize_query(&mut b);
        assert_eq!(query_fingerprint(&a), query_fingerprint(&b));
    }

    #[test]
    fn different_shapes_do_not_collide() {
        let mut a = tq(vec![vec![pat(Atom::Var(0), 7, Atom::Var(1))]], 2, vec![0]);
        let mut b = tq(vec![vec![pat(Atom::Var(0), 8, Atom::Var(1))]], 2, vec![0]);
        let mut c = tq(vec![vec![pat(Atom::Var(0), 7, Atom::Const(8))]], 1, vec![0]);
        canonicalize_query(&mut a);
        canonicalize_query(&mut b);
        canonicalize_query(&mut c);
        let (fa, fb, fc) = (
            query_fingerprint(&a),
            query_fingerprint(&b),
            query_fingerprint(&c),
        );
        assert_ne!(fa, fb);
        assert_ne!(fa, fc);
        assert_ne!(fb, fc);
    }

    #[test]
    fn limit_offset_and_names_are_excluded() {
        let mut a = tq(vec![vec![pat(Atom::Var(0), 7, Atom::Var(1))]], 2, vec![0]);
        let mut b = a.clone();
        b.limit = Some(10);
        b.offset = Some(5);
        b.var_names = vec!["other".into(), "names".into()];
        b.proj_names = vec!["other".into()];
        canonicalize_query(&mut a);
        canonicalize_query(&mut b);
        assert_eq!(query_fingerprint(&a), query_fingerprint(&b));
    }

    #[test]
    fn distinct_flag_changes_the_fingerprint() {
        let mut a = tq(vec![vec![pat(Atom::Var(0), 7, Atom::Var(1))]], 2, vec![0]);
        let mut b = a.clone();
        b.distinct = true;
        canonicalize_query(&mut a);
        canonicalize_query(&mut b);
        assert_ne!(query_fingerprint(&a), query_fingerprint(&b));
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let mut a = tq(
            vec![vec![
                pat(Atom::Var(2), 9, Atom::Var(1)),
                pat(Atom::Var(1), 7, Atom::Var(0)),
            ]],
            3,
            vec![2],
        );
        canonicalize_query(&mut a);
        let once = (
            a.clone().pattern_sets,
            a.projection.clone(),
            a.var_names.clone(),
        );
        canonicalize_query(&mut a);
        assert_eq!(
            once,
            (
                a.pattern_sets.clone(),
                a.projection.clone(),
                a.var_names.clone()
            )
        );
    }

    #[test]
    fn projection_names_follow_their_slots() {
        let mut a = tq(
            vec![vec![pat(Atom::Var(1), 7, Atom::Var(0))]],
            2,
            vec![1, 0],
        );
        a.var_names = vec!["obj".into(), "subj".into()];
        a.proj_names = vec!["subj".into(), "obj".into()];
        canonicalize_query(&mut a);
        // Slot meanings survive the renumbering.
        let names: Vec<&str> = a
            .projection
            .iter()
            .map(|&v| a.var_names[v as usize].as_str())
            .collect();
        assert_eq!(names, vec!["subj", "obj"]);
        assert_eq!(a.proj_names, vec!["subj", "obj"]);
    }
}
