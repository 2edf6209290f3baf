//! Engine construction and CLI plumbing shared by the experiment
//! binaries.

use std::path::PathBuf;

use parj_core::{EngineConfig, Parj};
use parj_datagen::{lubm, watdiv};
use parj_join::Atom;
use parj_optimizer::Pattern;
use parj_sparql::{parse_query, STerm};

/// Command-line arguments common to every experiment binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Dataset scale (LUBM: universities; WatDiv: scale units).
    pub scale: usize,
    /// Repetitions per query (paper: 10).
    pub runs: usize,
    /// Threads for the multi-thread columns (paper: 32 on a 16-core
    /// machine with hyper-threading). Defaults to available parallelism.
    pub threads: usize,
    /// Output directory for `.md`/`.json` artifacts.
    pub out: PathBuf,
    /// Run Algorithm 2's timed calibration instead of the paper's
    /// default windows.
    pub calibrate: bool,
}

impl Args {
    /// Parses `--scale N --runs N --threads N --out DIR --calibrate`
    /// from `std::env::args`, with experiment-appropriate defaults.
    pub fn parse(default_scale: usize) -> Args {
        let mut args = Args {
            scale: default_scale,
            runs: 5,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            out: PathBuf::from("results"),
            calibrate: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => args.scale = it.next().and_then(|v| v.parse().ok()).expect("--scale N"),
                "--runs" => args.runs = it.next().and_then(|v| v.parse().ok()).expect("--runs N"),
                "--threads" => {
                    args.threads = it.next().and_then(|v| v.parse().ok()).expect("--threads N")
                }
                "--out" => args.out = PathBuf::from(it.next().expect("--out DIR")),
                "--calibrate" => args.calibrate = true,
                other => panic!("unknown argument {other:?} (known: --scale --runs --threads --out --calibrate)"),
            }
        }
        args
    }

    /// Engine configuration under these arguments.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            threads: self.threads,
            calibrate: self.calibrate,
            ..EngineConfig::default()
        }
    }
}

/// Builds a LUBM-like engine at `universities` scale.
pub fn lubm_engine(universities: usize, config: EngineConfig) -> Parj {
    let store = lubm::generate_store(&lubm::LubmConfig {
        universities,
        seed: lubm::LubmConfig::default().seed,
    });
    Parj::from_store(store, config)
}

/// Builds a WatDiv-like engine at `scale`.
pub fn watdiv_engine(scale: usize, config: EngineConfig) -> Parj {
    let store = watdiv::generate_store(&watdiv::WatDivConfig {
        scale,
        seed: watdiv::WatDivConfig::default().seed,
    });
    Parj::from_store(store, config)
}

/// Translates a BGP query into the encoded pattern list the baseline
/// engines consume (textual pattern order). Returns `None` when a
/// constant is absent from the data or the query has predicate
/// variables (the baselines skip those).
pub fn encode_bgp(engine: &mut Parj, sparql: &str) -> Option<(Vec<Pattern>, usize)> {
    let parsed = parse_query(sparql).ok()?;
    let dict = engine.store().dict();
    let mut names: Vec<String> = Vec::new();
    let mut var_id = |n: &str| -> u16 {
        if let Some(i) = names.iter().position(|x| x == n) {
            i as u16
        } else {
            names.push(n.to_string());
            (names.len() - 1) as u16
        }
    };
    let mut patterns = Vec::new();
    for p in &parsed.patterns {
        let s = match &p.s {
            STerm::Var(v) => Atom::Var(var_id(v)),
            STerm::Term(t) => Atom::Const(dict.resource_id(t)?),
        };
        let o = match &p.o {
            STerm::Var(v) => Atom::Var(var_id(v)),
            STerm::Term(t) => Atom::Const(dict.resource_id(t)?),
        };
        let pred = match &p.p {
            STerm::Var(_) => return None,
            STerm::Term(t) => dict.predicate_id(t)?,
        };
        patterns.push(Pattern { s, p: pred, o });
    }
    Some((patterns, names.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_build_and_answer() {
        let e = lubm_engine(1, EngineConfig::default());
        assert!(e.num_triples() > 1000);
        let q = &lubm::queries()[4]; // LUBM5, selective
        assert!(e.request(&q.sparql).count_only().run().unwrap().count > 0);

        let w = watdiv_engine(1, EngineConfig::default());
        assert!(w.num_triples() > 1000);
    }

    #[test]
    fn encode_bgp_matches_engine() {
        let mut e = watdiv_engine(1, EngineConfig::default());
        let q = &watdiv::basic_workload()[0];
        let (patterns, vars) = encode_bgp(&mut e, &q.sparql).expect("encodable");
        assert_eq!(patterns.len(), 2);
        assert!(vars >= 2);
    }
}
