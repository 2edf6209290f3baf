//! LUBM-like university data generator and the LUBM1–LUBM10 query
//! analogues.
//!
//! The real Lehigh University Benchmark generator (UBA) produces, per
//! university, 15–25 departments each populated with faculty, students,
//! courses, research groups and publications, linked by 17 predicates.
//! This generator reproduces that structure at a laptop-friendly density
//! (≈17 k triples per university; tune with
//! [`LubmConfig::universities`]) while preserving the properties PARJ's
//! evaluation depends on:
//!
//! * **generation-order locality** — entities of one department get
//!   consecutive dictionary ids, so predicate key arrays contain long
//!   sorted runs that the adaptive join's sequential mode exploits
//!   (Table 6's "sequential searches heavily outnumber binary
//!   searches");
//! * **fan-out skew** — students take several courses, professors hold
//!   three degrees, departments hold many members;
//! * **closed-world query constants** — `u0`, `u0/d0`, … always exist,
//!   so the query templates below are valid at every scale;
//! * **triangle closures** — graduate students sometimes hold their
//!   undergraduate degree from their own university (LUBM2's triangle)
//!   and often take courses their advisor teaches (LUBM9's triangle).

use parj_dict::Term;
use parj_store::{StoreBuilder, TripleStore};

use crate::{NamedQuery, SplitMix64};

/// Namespace prefix of all generated IRIs.
pub const NS: &str = "http://lubm/";
/// The `rdf:type` IRI used for class membership.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// The 16 domain predicates (plus `rdf:type` = 17, matching the count
/// the paper reports for LUBM).
pub const PREDICATES: [&str; 16] = [
    "worksFor",
    "memberOf",
    "subOrganizationOf",
    "undergraduateDegreeFrom",
    "mastersDegreeFrom",
    "doctoralDegreeFrom",
    "teacherOf",
    "takesCourse",
    "advisor",
    "publicationAuthor",
    "headOf",
    "name",
    "emailAddress",
    "telephone",
    "researchInterest",
    "teachingAssistantOf",
];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct LubmConfig {
    /// Number of universities (the benchmark's scale knob; the paper
    /// runs 1280–10240, this reproduction defaults to tens).
    pub universities: usize,
    /// PRNG seed; equal configs generate identical triple sets.
    pub seed: u64,
}

impl Default for LubmConfig {
    fn default() -> Self {
        Self {
            universities: 5,
            seed: 0x4c55_424d,
        }
    }
}

fn iri(path: String) -> Term {
    Term::iri(format!("{NS}{path}"))
}

fn pred(name: &str) -> Term {
    Term::iri(format!("{NS}{name}"))
}

fn class(name: &str) -> Term {
    Term::iri(format!("{NS}{name}"))
}

/// Generates all triples, invoking `emit(s, p, o)` for each.
pub fn generate<F: FnMut(Term, Term, Term)>(cfg: &LubmConfig, mut emit: F) {
    let rdf_type = Term::iri(RDF_TYPE);
    let mut rng = SplitMix64::new(cfg.seed ^ 0x4c55_424d); // "LUBM"

    for u in 0..cfg.universities {
        let univ = iri(format!("u{u}"));
        emit(univ.clone(), rdf_type.clone(), class("University"));
        emit(
            univ.clone(),
            pred("name"),
            Term::literal(format!("University {u}")),
        );

        let depts = rng.range(12, 18);
        for d in 0..depts {
            let dept = iri(format!("u{u}/d{d}"));
            emit(dept.clone(), rdf_type.clone(), class("Department"));
            emit(dept.clone(), pred("subOrganizationOf"), univ.clone());
            emit(
                dept.clone(),
                pred("name"),
                Term::literal(format!("Department {d} of University {u}")),
            );

            // Courses first so teachers/students can reference them.
            let n_courses = rng.range(18, 28);
            let n_grad_courses = rng.range(10, 16);
            let course = |i: usize| iri(format!("u{u}/d{d}/c{i}"));
            let grad_course = |i: usize| iri(format!("u{u}/d{d}/gc{i}"));
            for i in 0..n_courses {
                emit(course(i), rdf_type.clone(), class("Course"));
                emit(
                    course(i),
                    pred("name"),
                    Term::literal(format!("Course {i}")),
                );
            }
            for i in 0..n_grad_courses {
                emit(grad_course(i), rdf_type.clone(), class("GraduateCourse"));
                emit(
                    grad_course(i),
                    pred("name"),
                    Term::literal(format!("GraduateCourse {i}")),
                );
            }

            // Faculty: full / associate / assistant professors, lecturers.
            let n_full = rng.range(2, 3);
            let n_assoc = rng.range(3, 4);
            let n_assist = rng.range(3, 4);
            let n_lect = rng.range(2, 3);
            let mut faculty: Vec<Term> = Vec::new();
            // Which courses each faculty member teaches (indexes into the
            // unified course list: 0..n_courses are Course, then grad).
            let total_courses = n_courses + n_grad_courses;
            let course_term = |i: usize| {
                if i < n_courses {
                    course(i)
                } else {
                    grad_course(i - n_courses)
                }
            };
            let mut teacher_courses: Vec<Vec<usize>> = Vec::new();
            let mut next_course = 0usize;

            let kinds: [(&str, usize); 4] = [
                ("FullProfessor", n_full),
                ("AssociateProfessor", n_assoc),
                ("AssistantProfessor", n_assist),
                ("Lecturer", n_lect),
            ];
            for (kind, count) in kinds {
                for i in 0..count {
                    let tag = match kind {
                        "FullProfessor" => "fp",
                        "AssociateProfessor" => "ap",
                        "AssistantProfessor" => "asp",
                        _ => "lect",
                    };
                    let person = iri(format!("u{u}/d{d}/{tag}{i}"));
                    emit(person.clone(), rdf_type.clone(), class(kind));
                    emit(person.clone(), pred("worksFor"), dept.clone());
                    emit(
                        person.clone(),
                        pred("name"),
                        Term::literal(format!("{kind} {i} of u{u}/d{d}")),
                    );
                    emit(
                        person.clone(),
                        pred("emailAddress"),
                        Term::literal(format!("{tag}{i}@u{u}d{d}.edu")),
                    );
                    emit(
                        person.clone(),
                        pred("telephone"),
                        Term::literal(format!("+1-555-{u:03}-{d:02}{i:02}")),
                    );
                    if kind != "Lecturer" {
                        // Professors hold three degrees from random
                        // universities.
                        for degree in [
                            "undergraduateDegreeFrom",
                            "mastersDegreeFrom",
                            "doctoralDegreeFrom",
                        ] {
                            let from = iri(format!("u{}", rng.below(cfg.universities)));
                            emit(person.clone(), pred(degree), from);
                        }
                        let n_interests = rng.range(1, 2);
                        for r in 0..n_interests {
                            emit(
                                person.clone(),
                                pred("researchInterest"),
                                Term::literal(format!("Research{}", rng.below(30) + r)),
                            );
                        }
                    }
                    // Teaching load: 1-2 courses each, assigned round-robin
                    // so every faculty member teaches something.
                    let load = rng.range(1, 2);
                    let mut mine = Vec::with_capacity(load);
                    for _ in 0..load {
                        if next_course < total_courses {
                            emit(person.clone(), pred("teacherOf"), course_term(next_course));
                            mine.push(next_course);
                            next_course += 1;
                        }
                    }
                    faculty.push(person);
                    teacher_courses.push(mine);
                }
            }
            // Head of department: the first full professor.
            emit(faculty[0].clone(), pred("headOf"), dept.clone());
            // Orphan courses get the head as teacher.
            while next_course < total_courses {
                emit(
                    faculty[0].clone(),
                    pred("teacherOf"),
                    course_term(next_course),
                );
                teacher_courses[0].push(next_course);
                next_course += 1;
            }

            // Publications: each professor authors a few; some co-authors.
            let n_professors = n_full + n_assoc + n_assist;
            for (fi, person) in faculty.iter().take(n_professors).enumerate() {
                let n_pubs = rng.range(2, 5);
                for j in 0..n_pubs {
                    let publ = iri(format!("u{u}/d{d}/pub{fi}_{j}"));
                    emit(publ.clone(), rdf_type.clone(), class("Publication"));
                    emit(publ.clone(), pred("publicationAuthor"), person.clone());
                    emit(
                        publ.clone(),
                        pred("name"),
                        Term::literal(format!("Publication {fi}.{j}")),
                    );
                    if rng.below(3) == 0 {
                        let co = &faculty[rng.below(faculty.len())];
                        if co != person {
                            emit(publ.clone(), pred("publicationAuthor"), co.clone());
                        }
                    }
                }
            }

            // Research groups.
            let n_groups = rng.range(4, 6);
            for g in 0..n_groups {
                let group = iri(format!("u{u}/d{d}/rg{g}"));
                emit(group.clone(), rdf_type.clone(), class("ResearchGroup"));
                emit(group, pred("subOrganizationOf"), dept.clone());
            }

            // Undergraduate students.
            let n_ugrad = rng.range(50, 70);
            for i in 0..n_ugrad {
                let stud = iri(format!("u{u}/d{d}/us{i}"));
                emit(
                    stud.clone(),
                    rdf_type.clone(),
                    class("UndergraduateStudent"),
                );
                emit(stud.clone(), pred("memberOf"), dept.clone());
                emit(
                    stud.clone(),
                    pred("name"),
                    Term::literal(format!("UndergraduateStudent {i}")),
                );
                emit(
                    stud.clone(),
                    pred("emailAddress"),
                    Term::literal(format!("us{i}@u{u}d{d}.edu")),
                );
                emit(
                    stud.clone(),
                    pred("telephone"),
                    Term::literal(format!("+1-556-{u:03}-{d:02}{i:03}")),
                );
                let n_takes = rng.range(2, 4);
                for _ in 0..n_takes {
                    emit(
                        stud.clone(),
                        pred("takesCourse"),
                        course(rng.below(n_courses)),
                    );
                }
                // A fifth of undergraduates have a professor advisor.
                if rng.below(5) == 0 {
                    emit(
                        stud.clone(),
                        pred("advisor"),
                        faculty[rng.below(n_professors)].clone(),
                    );
                }
            }

            // Graduate students.
            let n_grad = rng.range(15, 25);
            for i in 0..n_grad {
                let stud = iri(format!("u{u}/d{d}/gs{i}"));
                emit(stud.clone(), rdf_type.clone(), class("GraduateStudent"));
                emit(stud.clone(), pred("memberOf"), dept.clone());
                emit(
                    stud.clone(),
                    pred("name"),
                    Term::literal(format!("GraduateStudent {i}")),
                );
                emit(
                    stud.clone(),
                    pred("emailAddress"),
                    Term::literal(format!("gs{i}@u{u}d{d}.edu")),
                );
                emit(
                    stud.clone(),
                    pred("telephone"),
                    Term::literal(format!("+1-557-{u:03}-{d:02}{i:03}")),
                );
                // LUBM2's triangle: 20% earned their degree here.
                let degree_univ = if rng.below(5) == 0 {
                    univ.clone()
                } else {
                    iri(format!("u{}", rng.below(cfg.universities)))
                };
                emit(stud.clone(), pred("undergraduateDegreeFrom"), degree_univ);
                // Advisor among the professors.
                let advisor_idx = rng.below(n_professors);
                emit(stud.clone(), pred("advisor"), faculty[advisor_idx].clone());
                // Courses: 2-3, biased toward the advisor's own courses
                // (LUBM9's triangle).
                let n_takes = rng.range(2, 3);
                for _ in 0..n_takes {
                    let adv_courses = &teacher_courses[advisor_idx];
                    let pick = if !adv_courses.is_empty() && rng.below(5) < 2 {
                        adv_courses[rng.below(adv_courses.len())]
                    } else {
                        n_courses + rng.below(n_grad_courses)
                    };
                    emit(stud.clone(), pred("takesCourse"), course_term(pick));
                }
                // A third of graduate students TA a course.
                if rng.below(3) == 0 {
                    emit(
                        stud.clone(),
                        pred("teachingAssistantOf"),
                        course(rng.below(n_courses)),
                    );
                }
            }
        }
    }
}

/// Generates into a fresh [`StoreBuilder`].
pub fn generate_builder(cfg: &LubmConfig) -> StoreBuilder {
    let mut b = StoreBuilder::new();
    generate(cfg, |s, p, o| {
        b.add_term_triple(&s, &p, &o);
    });
    b
}

/// Generates and builds a complete store.
pub fn generate_store(cfg: &LubmConfig) -> TripleStore {
    generate_builder(cfg).build()
}

/// Serializes the generated data as N-Triples.
pub fn write_ntriples<W: std::io::Write>(cfg: &LubmConfig, w: &mut W) -> std::io::Result<()> {
    let mut result = Ok(());
    generate(cfg, |s, p, o| {
        if result.is_ok() {
            result = parj_rio_write(w, &s, &p, &o);
        }
    });
    result
}

fn parj_rio_write<W: std::io::Write>(
    w: &mut W,
    s: &Term,
    p: &Term,
    o: &Term,
) -> std::io::Result<()> {
    writeln!(w, "{s} {p} {o} .")
}

/// The ten benchmark queries: analogues of LUBM1–LUBM7 (the seven used
/// by systems without reasoning, per the Trinity.RDF evaluation) plus
/// LUBM8–LUBM10 (the dynamic-exchange additions). Shapes and selectivity
/// classes mirror the originals:
///
/// | query | profile (paper's Table 2 behaviour) |
/// |---|---|
/// | LUBM1 | complex join, large intermediates, large result |
/// | LUBM2 | triangle with very large result (≈10 M at scale 10240) |
/// | LUBM3 | mid-size chain |
/// | LUBM4 | selective attribute star (few ms) |
/// | LUBM5 | very selective membership (≈1 ms) |
/// | LUBM6 | selective with class check |
/// | LUBM7 | complex teacher/student join |
/// | LUBM8 | large intermediate, few finals (single-university filter) |
/// | LUBM9 | advisor triangle — the heaviest query |
/// | LUBM10 | mixed chain + triangle |
pub fn queries() -> Vec<NamedQuery> {
    let q = |name: &str, body: String| NamedQuery::new(name, "LUBM", body);
    vec![
        q(
            "LUBM1",
            format!(
                "SELECT ?x ?c ?p WHERE {{ ?x <{NS}takesCourse> ?c . ?p <{NS}teacherOf> ?c . ?x <{NS}memberOf> ?d . }}"
            ),
        ),
        q(
            "LUBM2",
            format!(
                "SELECT ?x ?d ?u WHERE {{ ?x <{NS}memberOf> ?d . ?d <{NS}subOrganizationOf> ?u . ?x <{NS}undergraduateDegreeFrom> ?u . }}"
            ),
        ),
        q(
            "LUBM3",
            format!(
                "SELECT ?pub ?a ?d WHERE {{ ?pub <{NS}publicationAuthor> ?a . ?a <{NS}worksFor> ?d . ?d <{NS}subOrganizationOf> ?u . }}"
            ),
        ),
        q(
            "LUBM4",
            format!(
                "SELECT ?x ?n ?e ?t WHERE {{ ?x <{NS}worksFor> <{NS}u0/d0> . ?x <{NS}name> ?n . ?x <{NS}emailAddress> ?e . ?x <{NS}telephone> ?t . }}"
            ),
        ),
        q(
            "LUBM5",
            format!(
                "SELECT ?x WHERE {{ ?x <{NS}memberOf> <{NS}u0/d0> . ?x <{RDF_TYPE}> <{NS}UndergraduateStudent> . }}"
            ),
        ),
        q(
            "LUBM6",
            format!(
                "SELECT ?x ?c WHERE {{ ?x <{NS}teachingAssistantOf> ?c . ?x <{NS}memberOf> <{NS}u0/d0> . }}"
            ),
        ),
        q(
            "LUBM7",
            format!(
                "SELECT ?x ?c ?p WHERE {{ ?p <{NS}teacherOf> ?c . ?x <{NS}takesCourse> ?c . ?x <{RDF_TYPE}> <{NS}UndergraduateStudent> . }}"
            ),
        ),
        q(
            "LUBM8",
            format!(
                "SELECT ?x ?d ?e WHERE {{ ?x <{NS}memberOf> ?d . ?d <{NS}subOrganizationOf> <{NS}u0> . ?x <{NS}emailAddress> ?e . }}"
            ),
        ),
        q(
            "LUBM9",
            format!(
                "SELECT ?x ?p ?c WHERE {{ ?x <{NS}advisor> ?p . ?p <{NS}teacherOf> ?c . ?x <{NS}takesCourse> ?c . }}"
            ),
        ),
        q(
            "LUBM10",
            format!(
                "SELECT ?x ?c ?d ?u WHERE {{ ?x <{NS}takesCourse> ?c . ?x <{NS}memberOf> ?d . ?d <{NS}subOrganizationOf> ?u . ?x <{NS}undergraduateDegreeFrom> ?u . }}"
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let cfg = LubmConfig {
            universities: 1,
            seed: 9,
        };
        let a = generate_store(&cfg);
        let b = generate_store(&cfg);
        assert_eq!(a.num_triples(), b.num_triples());
        let ta: Vec<_> = a.iter_triples().collect();
        let tb: Vec<_> = b.iter_triples().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn seventeen_predicates() {
        let store = generate_store(&LubmConfig {
            universities: 1,
            seed: 1,
        });
        assert_eq!(store.num_predicates(), 17);
        assert_eq!(store.check_invariants(), Ok(()));
    }

    #[test]
    fn scale_grows_linearly() {
        let one = generate_store(&LubmConfig {
            universities: 1,
            seed: 5,
        })
        .num_triples();
        let four = generate_store(&LubmConfig {
            universities: 4,
            seed: 5,
        })
        .num_triples();
        assert!(one > 5_000, "single university too small: {one}");
        assert!(four > 3 * one && four < 5 * one, "one={one} four={four}");
    }

    #[test]
    fn query_constants_exist() {
        let store = generate_store(&LubmConfig {
            universities: 1,
            seed: 3,
        });
        for c in [
            format!("{NS}u0"),
            format!("{NS}u0/d0"),
            format!("{NS}UndergraduateStudent"),
        ] {
            assert!(
                store.dict().resource_id(&Term::iri(&c)).is_some(),
                "missing constant {c}"
            );
        }
    }

    #[test]
    fn queries_parse() {
        for q in queries() {
            parj_sparql_check(&q.sparql, &q.name);
        }
    }

    fn parj_sparql_check(_sparql: &str, _name: &str) {
        // The full parse-and-run check lives in the integration tests
        // (needs parj-core); here we only assert the templates are
        // well-formed strings mentioning the namespace.
        assert!(_sparql.contains(NS), "{_name} lost its namespace");
    }
}
