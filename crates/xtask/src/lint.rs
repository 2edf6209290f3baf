//! Hand-rolled workspace lint gate.
//!
//! No `syn` in the offline vendor set, so this is a line-oriented
//! scanner over a comment/string-stripped view of each source file —
//! precise enough for the five rules it enforces, and honest about its
//! scope (substring checks on code with literals blanked out):
//!
//! 1. `ordering-justified` — every *atomic* `Ordering::` use outside
//!    `crates/sync` carries a nearby `// ordering:` justification.
//! 2. `no-raw-sync` — shimmed crates (including `parj-server`) must
//!    reach `std::sync` / `std::thread` through `parj_sync` in
//!    non-test code, or loom models silently stop modeling those
//!    edges. The `locks` pass (`locks.rs`) extends this to deny raw
//!    `Mutex`/`RwLock`/`Condvar` types in favour of the level-carrying
//!    ordered wrappers.
//! 3. `hot-path-no-panic` — the join hot path (executor, search, rows,
//!    the delta-store merge iterators and the block codec it probes
//!    through) never calls `unwrap`/`expect`/`panic!`-family macros;
//!    failures flow through `ExecFailure`.
//! 4. `dead-code-reason` — `#[allow(dead_code)]` requires an adjacent
//!    comment saying why.
//! 5. `generation-boundary` — the cache's store-generation protocol
//!    (`store_generation` / `bump_generation`) is only touched by
//!    `crates/cache` and `crates/core`; any other crate reading or
//!    bumping it could serve stale answers past the invalidation
//!    boundary.
//! 6. `no-unsafe` — no `unsafe` and no `std::arch` anywhere under
//!    `crates/`. Every crate is `forbid(unsafe_code)`; this rule keeps
//!    an `allow` from quietly reopening the exception the SIMD codec
//!    once held.

use std::path::{Path, PathBuf};

/// A source file reduced to checkable form.
pub struct Stripped {
    /// Code per line, with comment text and string/char literal
    /// contents blanked to spaces (delimiters kept).
    pub code: Vec<String>,
    /// Comment text per line (both `//` and `/* */` bodies).
    pub comments: Vec<String>,
    /// Per line: inside a `#[cfg(test)]` item (or the attribute
    /// itself).
    pub in_test: Vec<bool>,
}

/// One rule violation, with coordinates.
#[derive(Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule name.
    pub rule: &'static str,
    /// What is wrong and how to fix it.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.msg)
    }
}

/// Lexer state for [`strip`].
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Strips `src` into code/comment line pairs. The stripper understands
/// line and (nested) block comments, plain/byte/raw string literals,
/// char literals, and lifetimes.
pub fn strip(src: &str) -> Stripped {
    let chars: Vec<char> = src.chars().collect();
    let mut code_lines = Vec::new();
    let mut comment_lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw / byte string openers: r" r#" br" b" — only when
                // the prefix is not the tail of an identifier.
                if (c == 'r' || c == 'b')
                    && !i.checked_sub(1).is_some_and(|p| {
                        chars[p].is_alphanumeric() || chars[p] == '_'
                    })
                {
                    let mut j = i;
                    let mut saw_r = false;
                    if chars.get(j) == Some(&'b') {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'r') {
                        saw_r = true;
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') && (saw_r || hashes == 0) && j > i {
                        if saw_r {
                            code.push('"');
                            state = State::RawStr(hashes);
                            i = j + 1;
                            continue;
                        } else if hashes == 0 && chars.get(i) == Some(&'b') && chars.get(i + 1) == Some(&'"') {
                            code.push('"');
                            state = State::Str;
                            i += 2;
                            continue;
                        }
                    }
                }
                if c == '"' {
                    code.push('"');
                    state = State::Str;
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Char literal vs lifetime.
                    if chars.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: skip to the closing quote.
                        code.push_str("' '");
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                        i = j + 1;
                        continue;
                    }
                    if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                        code.push_str("' '");
                        i += 3;
                        continue;
                    }
                    // Lifetime: emit as-is.
                    code.push('\'');
                    i += 1;
                    continue;
                }
                code.push(c);
                i += 1;
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped char (blanked anyway)
                    code.push(' ');
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                code.push(' ');
                i += 1;
            }
        }
    }
    code_lines.push(code);
    comment_lines.push(comment);

    let in_test = mark_test_regions(&code_lines);
    Stripped {
        code: code_lines,
        comments: comment_lines,
        in_test,
    }
}

/// Marks lines covered by a `#[cfg(test)]` item by tracking brace depth
/// from the attribute to the end of the item it gates.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut skip_at: Option<i64> = None;
    let mut pending = false;
    for (ln, line) in code.iter().enumerate() {
        let mut line_test = skip_at.is_some() || pending;
        if line.contains("#[cfg(test)]") || line.contains("#[cfg(all(test") {
            pending = true;
            line_test = true;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    if pending && skip_at.is_none() {
                        skip_at = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if skip_at == Some(depth) {
                        skip_at = None;
                    }
                }
                // `#[cfg(test)] use x;` — the attribute gates a
                // braceless item; the semicolon ends it.
                ';' if pending && skip_at.is_none() => pending = false,
                _ => {}
            }
            if skip_at.is_some() {
                line_test = true;
            }
        }
        in_test[ln] = line_test;
    }
    in_test
}

const ATOMIC_ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// How many lines above an atomic op a `// ordering:` comment still
/// counts as covering it.
const ORDERING_LOOKBACK: usize = 6;

/// Rule 1: atomic `Ordering::` uses outside `crates/sync` need a nearby
/// `// ordering:` justification comment.
pub fn check_ordering_justified(rel: &Path, s: &Stripped, out: &mut Vec<Violation>) {
    if rel.starts_with("crates/sync") {
        return;
    }
    for (ln, line) in s.code.iter().enumerate() {
        if s.in_test[ln] || !ATOMIC_ORDERINGS.iter().any(|o| line.contains(o)) {
            continue;
        }
        let lo = ln.saturating_sub(ORDERING_LOOKBACK);
        let justified = (lo..=ln).any(|k| s.comments[k].contains("ordering:"));
        if !justified {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: ln + 1,
                rule: "ordering-justified",
                msg: "atomic memory ordering without a `// ordering:` justification comment \
                      within the preceding 6 lines"
                    .into(),
            });
        }
    }
}

/// Crates whose non-test code must reach sync primitives through
/// `parj_sync` so loom models cover them.
pub const SHIMMED: [&str; 7] = [
    "crates/core",
    "crates/obs",
    "crates/dict",
    "crates/store",
    "crates/join",
    "crates/cache",
    "crates/server",
];

/// Rule 2: no direct `std::sync` / `std::thread` in shimmed crates'
/// non-test code.
pub fn check_no_raw_sync(rel: &Path, s: &Stripped, out: &mut Vec<Violation>) {
    if !SHIMMED.iter().any(|c| rel.starts_with(c)) {
        return;
    }
    // Integration tests, benches and examples are test-only by
    // construction; the shim rule only guards shipped code under src/.
    if !rel.components().any(|c| c.as_os_str() == "src") {
        return;
    }
    for (ln, line) in s.code.iter().enumerate() {
        if s.in_test[ln] {
            continue;
        }
        for needle in ["std::sync", "std::thread"] {
            if line.contains(needle) {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    rule: "no-raw-sync",
                    msg: format!(
                        "direct `{needle}` in a parj-sync-shimmed crate; use `parj_sync::*` \
                         so `cfg(loom)` models cover this edge"
                    ),
                });
            }
        }
    }
}

/// Join hot-path files: per-row code where a panic would tear down a
/// worker instead of producing an `ExecFailure`. The delta store's
/// merge iterators qualify since PR 8: `_view` executor variants probe
/// through them on every morsel. The block codec qualifies because
/// compression is on by default: every group probe and scan of a
/// packed replica runs through it.
const HOT_PATH: [&str; 5] = [
    "crates/join/src/exec.rs",
    "crates/join/src/search.rs",
    "crates/join/src/rows.rs",
    "crates/store/src/delta.rs",
    "crates/store/src/codec.rs",
];

const PANICKY: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Rule 3: no panicking calls in the join hot path's non-test code.
/// (`unwrap_or*` are fine — the patterns are written to miss them.)
pub fn check_hot_path_no_panic(rel: &Path, s: &Stripped, out: &mut Vec<Violation>) {
    let rel_str = rel.to_string_lossy();
    if !HOT_PATH.iter().any(|h| rel_str == *h) {
        return;
    }
    for (ln, line) in s.code.iter().enumerate() {
        if s.in_test[ln] {
            continue;
        }
        for needle in PANICKY {
            if line.contains(needle) {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    rule: "hot-path-no-panic",
                    msg: format!(
                        "`{needle}` in the join hot path; surface the failure as an \
                         `ExecFailure` instead"
                    ),
                });
            }
        }
    }
}

/// Rule 4: `#[allow(dead_code)]` needs an adjacent comment explaining
/// why the code is kept.
pub fn check_dead_code_reason(rel: &Path, s: &Stripped, out: &mut Vec<Violation>) {
    for (ln, line) in s.code.iter().enumerate() {
        if !line.contains("#[allow(dead_code)]") {
            continue;
        }
        let same = !s.comments[ln].trim().is_empty();
        let above = ln > 0 && !s.comments[ln - 1].trim().is_empty();
        if !same && !above {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: ln + 1,
                rule: "dead-code-reason",
                msg: "`#[allow(dead_code)]` without an adjacent comment saying why".into(),
            });
        }
    }
}

/// The store-generation protocol surface: reading the counter and
/// bumping it on store rebuilds.
const GENERATION_TOKENS: [&str; 2] = ["store_generation", "bump_generation"];

/// Crates allowed to touch the generation protocol: the cache that
/// defines it, and the engine that drives it from `finalize()`.
const GENERATION_CRATES: [&str; 2] = ["crates/cache", "crates/core"];

/// Rule 5: the cache-invalidation generation counter is read and bumped
/// only inside `crates/cache` / `crates/core`. Any other crate touching
/// it sits outside the engine's `&self`-borrow reasoning and could
/// serve or stamp answers across a store rebuild.
pub fn check_generation_boundary(rel: &Path, s: &Stripped, out: &mut Vec<Violation>) {
    if GENERATION_CRATES.iter().any(|c| rel.starts_with(c)) {
        return;
    }
    // The linter itself names the tokens it bans.
    if rel.starts_with("crates/xtask") {
        return;
    }
    for (ln, line) in s.code.iter().enumerate() {
        for needle in GENERATION_TOKENS {
            if line.contains(needle) {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    rule: "generation-boundary",
                    msg: format!(
                        "`{needle}` outside crates/cache and crates/core; the store-generation \
                         protocol is owned by the cache and driven only by the engine"
                    ),
                });
            }
        }
    }
}

/// True when `line` contains `unsafe` as a standalone keyword (not as a
/// fragment of an identifier like `unsafe_code`).
fn has_unsafe_keyword(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(at) = line[from..].find("unsafe") {
        let start = from + at;
        let end = start + "unsafe".len();
        let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let left_ok = start == 0 || !word(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !word(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Rule 6: no `unsafe` and no `std::arch` in non-test code.
pub fn check_no_unsafe(rel: &Path, s: &Stripped, out: &mut Vec<Violation>) {
    // The linter names the tokens it bans.
    if rel.starts_with("crates/xtask") {
        return;
    }
    for (ln, line) in s.code.iter().enumerate() {
        if s.in_test[ln] {
            continue;
        }
        let found = if has_unsafe_keyword(line) {
            Some("unsafe")
        } else {
            ["std::arch", "core::arch"].into_iter().find(|n| line.contains(n))
        };
        if let Some(needle) = found {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: ln + 1,
                rule: "no-unsafe",
                msg: format!("`{needle}` in the workspace; every crate is forbid(unsafe_code)"),
            });
        }
    }
}

/// Runs every rule over one file's source.
pub fn check_file(rel: &Path, src: &str) -> Vec<Violation> {
    let s = strip(src);
    let mut out = Vec::new();
    check_ordering_justified(rel, &s, &mut out);
    check_no_raw_sync(rel, &s, &mut out);
    check_hot_path_no_panic(rel, &s, &mut out);
    check_dead_code_reason(rel, &s, &mut out);
    check_generation_boundary(rel, &s, &mut out);
    check_no_unsafe(rel, &s, &mut out);
    out
}

/// Collects `.rs` files under `root/crates`, skipping build output.
pub(crate) fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// Lints the whole workspace rooted at `root`.
pub fn run(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for path in rust_files(root) {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(&path);
        out.extend(check_file(rel, &src));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip_code(src: &str) -> Vec<String> {
        strip(src).code
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let code = strip_code(
            "let x = \"Ordering::Relaxed\"; // Ordering::SeqCst\nlet y = 1; /* std::sync */",
        );
        assert!(!code[0].contains("Ordering::"), "{:?}", code[0]);
        assert!(!code[1].contains("std::sync"), "{:?}", code[1]);
        let s = strip("// ordering: because\nx.load(Ordering::Relaxed);");
        assert!(s.comments[0].contains("ordering: because"));
        assert!(s.code[1].contains("Ordering::Relaxed"));
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let code = strip_code("let p = r#\"panic!(\"x\")\"#; let c = '\\''; let l: &'static str;");
        assert!(!code[0].contains("panic!"), "{:?}", code[0]);
        assert!(code[0].contains("&'static"), "{:?}", code[0]);
        let code = strip_code("let b = b\".unwrap()\";");
        assert!(!code[0].contains(".unwrap()"), "{:?}", code[0]);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let s = strip("/* outer /* inner */ still comment */ let x = 1;");
        assert!(s.code[0].contains("let x = 1"));
        assert!(!s.code[0].contains("still comment"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let s = strip(
            "fn live() { x.load(Ordering::Relaxed); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use std::sync::Arc;\n\
                 fn t() { panic!(); }\n\
             }\n\
             fn after() {}\n",
        );
        assert!(!s.in_test[0]);
        assert!(s.in_test[1] && s.in_test[2] && s.in_test[3] && s.in_test[4] && s.in_test[5]);
        assert!(!s.in_test[6]);
    }

    #[test]
    fn cfg_test_on_braceless_item_ends_at_semicolon() {
        let s = strip("#[cfg(test)]\nuse foo::bar;\nfn live() { let x = vec![1]; }\n");
        assert!(s.in_test[0] && s.in_test[1]);
        assert!(!s.in_test[2]);
    }

    #[test]
    fn unjustified_ordering_is_flagged_and_justified_passes() {
        let bad = check_file(
            Path::new("crates/obs/src/metrics.rs"),
            "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "ordering-justified");
        assert_eq!(bad[0].line, 1);

        let good = check_file(
            Path::new("crates/obs/src/metrics.rs"),
            "fn f(a: &AtomicU64) {\n    // ordering: Relaxed — counter only\n    a.load(Ordering::Relaxed);\n}",
        );
        assert!(good.is_empty(), "{good:?}");

        // parj-sync itself is exempt (it *defines* the shim).
        let sync = check_file(
            Path::new("crates/sync/src/lib.rs"),
            "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }",
        );
        assert!(sync.is_empty(), "{sync:?}");

        // cmp::Ordering variants don't trip the atomic rule.
        let cmp = check_file(
            Path::new("crates/store/src/store.rs"),
            "fn f() -> Ordering { Ordering::Less }",
        );
        assert!(cmp.is_empty(), "{cmp:?}");
    }

    #[test]
    fn raw_sync_in_shimmed_crate_is_flagged() {
        let bad = check_file(
            Path::new("crates/core/src/engine.rs"),
            "use std::sync::Arc;\nfn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad.iter().all(|v| v.rule == "no-raw-sync"));

        // Same code inside #[cfg(test)] is fine.
        let good = check_file(
            Path::new("crates/core/src/engine.rs"),
            "#[cfg(test)]\nmod tests {\n    use std::sync::Arc;\n}",
        );
        assert!(good.is_empty(), "{good:?}");

        // Unshimmed crates may use std directly.
        let other = check_file(
            Path::new("crates/baseline/src/engines.rs"),
            "use std::sync::Arc;",
        );
        assert!(other.is_empty(), "{other:?}");

        // Integration tests under tests/ are exempt.
        let test_file = check_file(
            Path::new("crates/core/tests/parallel_load.rs"),
            "use std::sync::Arc;",
        );
        assert!(test_file.is_empty(), "{test_file:?}");

        // The serving layer joined the shimmed set with the lock
        // hierarchy: its admission locks must be loom-modelable.
        let server = check_file(
            Path::new("crates/server/src/admission.rs"),
            "use std::sync::Mutex;",
        );
        assert_eq!(server.len(), 1, "{server:?}");
        assert_eq!(server[0].rule, "no-raw-sync");
    }

    #[test]
    fn hot_path_panics_are_flagged_but_unwrap_or_is_not() {
        let bad = check_file(
            Path::new("crates/join/src/exec.rs"),
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "hot-path-no-panic");

        let good = check_file(
            Path::new("crates/join/src/exec.rs"),
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\nfn g(x: Result<u32, u32>) -> u32 { x.unwrap_or_else(|e| e) }",
        );
        assert!(good.is_empty(), "{good:?}");

        // Other files may panic (their panics are caught at the exec
        // boundary).
        let other = check_file(
            Path::new("crates/join/src/plan.rs"),
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        );
        assert!(other.is_empty(), "{other:?}");

        // The delta merge iterators are hot path since the executor's
        // `_view` variants probe through them per morsel.
        let delta = check_file(
            Path::new("crates/store/src/delta.rs"),
            "fn f(x: Option<u32>) -> u32 { x.expect(\"present\") }",
        );
        assert_eq!(delta.len(), 1, "{delta:?}");
        assert_eq!(delta[0].rule, "hot-path-no-panic");

        // So is the block codec: with compression on by default every
        // packed group probe runs through it. (`assert!` in `pack` is
        // not a probe-path call and is not in the pattern set.)
        let codec = check_file(
            Path::new("crates/store/src/codec.rs"),
            "fn f(b: &[u8]) -> [u8; 8] { b[..8].try_into().unwrap() }\nfn g(n: usize) { assert!(n > 0); }",
        );
        assert_eq!(codec.len(), 1, "{codec:?}");
        assert_eq!((codec[0].rule, codec[0].line), ("hot-path-no-panic", 1));
    }

    #[test]
    fn dead_code_allow_needs_a_reason() {
        let bad = check_file(Path::new("crates/core/src/x.rs"), "#[allow(dead_code)]\nfn f() {}");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "dead-code-reason");

        let good = check_file(
            Path::new("crates/core/src/x.rs"),
            "// kept for the next PR's public API\n#[allow(dead_code)]\nfn f() {}",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn generation_tokens_are_fenced_to_cache_and_core() {
        let bad = check_file(
            Path::new("crates/cli/src/main.rs"),
            "fn f(c: &QueryCache) -> u64 { c.store_generation() }",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "generation-boundary");

        let bump = check_file(
            Path::new("crates/bench/src/lib.rs"),
            "fn f(c: &QueryCache) { c.bump_generation(); }",
        );
        assert_eq!(bump.len(), 1, "{bump:?}");

        // The owning crates may touch the protocol freely.
        for ok_path in ["crates/cache/src/lib.rs", "crates/core/src/engine.rs"] {
            let good = check_file(
                Path::new(ok_path),
                "fn f(c: &QueryCache) -> u64 { c.bump_generation(); c.store_generation() }",
            );
            assert!(good.is_empty(), "{good:?}");
        }

        // Mentions in comments and strings don't count.
        let comment = check_file(
            Path::new("crates/join/src/plan.rs"),
            "// store_generation is owned by parj-cache\nfn f() {}",
        );
        assert!(comment.is_empty(), "{comment:?}");
    }

    #[test]
    fn unsafe_is_flagged_everywhere() {
        // Keyword-precisely: the `forbid(unsafe_code)` attribute itself
        // must not trip the rule. The codec, once the audited
        // exception, is held to it like any other file.
        for file in ["crates/join/src/exec.rs", "crates/store/src/codec.rs"] {
            let bad = check_file(Path::new(file), "fn f(p: *const u32) -> u32 { unsafe { *p } }");
            assert!(bad.iter().any(|v| v.rule == "no-unsafe"), "{bad:?}");
        }

        let attr = check_file(
            Path::new("crates/store/src/lib.rs"),
            "#![forbid(unsafe_code)]\nfn f() {}",
        );
        assert!(attr.is_empty(), "{attr:?}");

        let arch = check_file(
            Path::new("crates/join/src/search.rs"),
            "fn f() { let _ = std::arch::is_x86_feature_detected!(\"sse2\"); }",
        );
        assert!(arch.iter().any(|v| v.rule == "no-unsafe"), "{arch:?}");
    }

    #[test]
    fn workspace_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = run(&root);
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
