//! End-to-end test of the `xtask locks` binary: exit 0 on the real
//! (migrated) tree, nonzero with coordinates on seeded fixtures — a
//! raw `std::sync::Mutex` in a product crate, and a cyclic (duplicate
//! value) level declaration.

use std::process::Command;

fn xtask() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
}

/// A minimal fixture tree: a `LockLevel` enum, a DESIGN.md §17 table
/// matching it, and one product-crate source file.
fn seed_tree(
    tag: &str,
    enum_body: &str,
    table_rows: &str,
    product_src: &str,
) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("parj-locks-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    for dir in ["crates/sync/src", "crates/server/src", "crates/xtask"] {
        std::fs::create_dir_all(root.join(dir)).unwrap();
    }
    std::fs::write(
        root.join("crates/sync/src/ordered.rs"),
        format!("pub enum LockLevel {{\n{enum_body}}}\n"),
    )
    .unwrap();
    std::fs::write(
        root.join("DESIGN.md"),
        format!("## 17. Lock hierarchy\n\n| Level | Variant |\n|---|---|\n{table_rows}"),
    )
    .unwrap();
    std::fs::write(root.join("crates/server/src/admission.rs"), product_src).unwrap();
    root
}

fn run_locks(root: &std::path::Path) -> (bool, String) {
    let out = xtask()
        .arg("locks")
        .env("CARGO_MANIFEST_DIR", root.join("crates/xtask"))
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn raw_mutex_in_a_product_crate_fails_the_gate() {
    let root = seed_tree(
        "raw",
        "    Server = 90,\n",
        "| 90 | `Server` |\n",
        "use std::sync::Mutex;\nstruct S { m: Mutex<u32> }\n",
    );
    let (ok, text) = run_locks(&root);
    assert!(!ok);
    assert!(text.contains("locks-raw-type"), "{text}");
    assert!(text.contains("admission.rs:2"), "{text}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn cyclic_level_declaration_fails_the_gate() {
    let root = seed_tree(
        "cycle",
        "    Server = 90,\n    Engine = 90,\n",
        "| 90 | `Server` |\n| 90 | `Engine` |\n",
        "fn clean() {}\n",
    );
    let (ok, text) = run_locks(&root);
    assert!(!ok);
    assert!(text.contains("locks-hierarchy"), "{text}");
    assert!(text.contains("cyclic"), "{text}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn table_drift_fails_the_gate() {
    let root = seed_tree(
        "drift",
        "    Server = 90,\n    Engine = 70,\n",
        "| 90 | `Server` |\n", // Engine missing from the table
        "fn clean() {}\n",
    );
    let (ok, text) = run_locks(&root);
    assert!(!ok);
    assert!(text.contains("missing from the DESIGN.md"), "{text}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn real_tree_passes_the_gate() {
    let out = xtask().arg("locks").output().unwrap();
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
