//! Engine-level audit integration: `Parj::audit`, `audit_strict`'s
//! [`ParjError::CorruptStore`] mapping, and auditing a shared engine.

#![cfg(not(loom))]

use std::sync::Arc;

use parj_core::{LoadSource, OnParseError, Parj, ParjError, RdfFormat};

fn engine() -> Parj {
    let mut loader = Parj::builder().threads(1).loader();
    loader
        .load(
            LoadSource::Text(
                "<http://e/a> <http://e/p> <http://e/b> .\n\
                 <http://e/b> <http://e/q> <http://e/c> .\n\
                 <http://e/c> <http://e/p> <http://e/a> .\n",
            ),
            RdfFormat::NTriples,
            OnParseError::Abort,
        )
        .unwrap();
    loader.finish()
}

#[test]
fn fresh_engine_audits_clean() {
    let e = engine();
    let report = e.audit();
    assert!(report.is_clean(), "{report}");
    assert!(report.checks_run > 0);
    assert!(e.audit_strict().is_ok());
}

#[test]
fn corrupt_store_maps_to_parj_error() {
    let mut e = engine();
    let mut bytes = e.store().to_snapshot_bytes();
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    let store = parj_core::TripleStore::from_snapshot_bytes(&bytes).expect("loads structurally");
    let bad = Parj::from_store(store, Default::default());
    let err = bad.audit_strict().unwrap_err();
    match &err {
        ParjError::CorruptStore { report } => {
            assert!(!report.is_clean());
            assert!(err.to_string().contains("corrupt store"), "{err}");
        }
        other => panic!("expected CorruptStore, got {other:?}"),
    }
}

#[test]
fn shared_engine_audit_coexists_with_queries() {
    let shared = Arc::new(engine());
    assert!(shared.audit().is_clean());
    let count = shared
        .request("SELECT ?x WHERE { ?x <http://e/p> ?y }")
        .count_only()
        .run()
        .unwrap()
        .count;
    assert_eq!(count, 2);
    assert!(shared.audit().is_clean());
}
