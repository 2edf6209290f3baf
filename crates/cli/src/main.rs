//! `parj` — command-line interface to the PARJ RDF store.
//!
//! ```text
//! parj load <data.nt> -o <store.parj>              build a snapshot from N-Triples
//! parj query <store.parj|data.nt> <sparql|@file>   run a query (full results)
//! parj count <store.parj|data.nt> <sparql|@file>   run a query in silent mode
//! parj explain <store.parj|data.nt> <sparql|@file> show the optimized plan
//! parj stats <store.parj|data.nt>                  store statistics
//! parj audit <store.parj|data.nt>                  deep structural invariant audit
//! parj generate lubm|watdiv <scale> -o <out.nt>    emit benchmark data
//! parj serve <store.parj|data.nt>                  SPARQL Protocol endpoint over HTTP
//! ```
//!
//! Common flags: `--threads N`, `--strategy binary|adbinary|index|adindex`,
//! `--reasoning`, `--calibrate`, `--timeout SECS`, `--max-rows N`,
//! `--lossy` / `--max-parse-errors N`. `--stats` prints an
//! `EXPLAIN ANALYZE`-style per-query report to stderr; `parj stats
//! --prometheus|--json` exposes the engine metrics registry.
//!
//! Exit codes map failure classes so scripts can react without
//! scraping stderr: 0 success, 1 usage/other, 2 parse error (SPARQL or
//! RDF data), 3 unsupported query feature, 4 deadline exceeded, 5
//! result budget exceeded, 6 corrupt store (audit failure), 101
//! internal panic.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use parj_core::{EngineConfig, OnParseError, Parj, ParjError, ProbeStrategy};

/// Process exit codes per failure class (documented in `USAGE`).
mod exit_codes {
    pub const USAGE: u8 = 1;
    pub const PARSE: u8 = 2;
    pub const UNSUPPORTED: u8 = 3;
    pub const TIMEOUT: u8 = 4;
    pub const BUDGET: u8 = 5;
    pub const CORRUPT: u8 = 6;
    pub const PANIC: u8 = 101;
}

/// An error message plus the exit code its class maps to.
type Failure = (u8, String);

/// Classifies an engine error into its exit code.
fn fail(e: ParjError) -> Failure {
    let code = match &e {
        ParjError::Sparql(_) | ParjError::Rio(_) => exit_codes::PARSE,
        ParjError::Unsupported(_) => exit_codes::UNSUPPORTED,
        ParjError::DeadlineExceeded { .. } => exit_codes::TIMEOUT,
        ParjError::BudgetExceeded { .. } => exit_codes::BUDGET,
        ParjError::CorruptStore { .. } => exit_codes::CORRUPT,
        ParjError::WorkerPanicked { .. } => exit_codes::PANIC,
        _ => exit_codes::USAGE,
    };
    (code, e.to_string())
}

/// A plain usage / environment error (exit code 1).
fn usage(msg: impl Into<String>) -> Failure {
    (exit_codes::USAGE, msg.into())
}

const USAGE: &str = "\
parj — Parallel Adaptive RDF Joins (EDBT 2019 reproduction)

USAGE:
  parj load <data.nt|data.ttl> -o <store.parj> [flags]
  parj query <store.parj|data.nt> <sparql | @query.rq> [flags]
  parj count <store.parj|data.nt> <sparql | @query.rq> [flags]
  parj explain <store.parj|data.nt> <sparql | @query.rq> [flags]
  parj profile <store.parj|data.nt> <sparql | @query.rq> [flags]
  parj stats <store.parj|data.nt> [--prometheus | --json]
  parj audit <store.parj|data.nt>
  parj generate <lubm|watdiv> <scale> -o <out.nt>
  parj serve <store.parj|data.nt> [--addr HOST:PORT] [flags]

FLAGS:
  --threads N      worker threads per query (default: all cores)
  --morsel-size N  driver keys per work morsel pulled by each worker
                   (default 16384; results are identical at any value)
  --stats          print a per-query EXPLAIN ANALYZE report to stderr
                   (query/count): annotated plan, phase timings, search mix
  --prometheus     (stats) expose the metrics registry as Prometheus text
  --json           (stats) expose the metrics registry as JSON
  --load-threads N worker threads for bulk loading (default: all cores;
                   loaded store is byte-identical at any value)
  --strategy S     binary | adbinary (default) | index | adindex
  --reasoning      answer w.r.t. rdfs:subClassOf/subPropertyOf in the data
  --calibrate      run Algorithm 2's timed calibration after load
  --timeout SECS   abort a query after this wall-clock budget (exit code 4)
  --max-rows N     abort a query once it produces more than N rows (exit code 5)
  --cache          serve repeated queries from the plan/result cache
                   (generation-checked: never serves answers from a stale store)
  --cache-bytes N  result-cache byte budget (implies --cache; default 64 MiB)
  --no-cache       bypass the cache for this run (with --cache: nothing is
                   served from or inserted into it)
  --lossy          skip malformed data lines while loading (reported on stderr)
  --max-parse-errors N   like --lossy but abort after N skipped lines
  -o PATH          output path (load/generate)

SERVE FLAGS:
  --addr H:P       listen address (default 127.0.0.1:7878)
  --permits N      max queries executing at once; beyond this requests
                   are shed with 429 + Retry-After (default 4)
  --quota B/R      per-client token bucket: burst B, refill R req/s
  --serve-seconds S  serve for S seconds then drain and exit
                   (default: serve until stdin reaches EOF)
  With serve, --timeout sets the default per-query deadline and
  --cache / --cache-bytes enable the shared result cache.

EXIT CODES:
  0 success   1 usage/other   2 parse error (SPARQL or RDF data)
  3 unsupported query   4 timeout   5 row budget exceeded
  6 corrupt store (audit)   101 worker panic
";

struct Cli {
    positional: Vec<String>,
    threads: Option<usize>,
    morsel_size: Option<usize>,
    load_threads: Option<usize>,
    strategy: Option<ProbeStrategy>,
    reasoning: bool,
    calibrate: bool,
    output: Option<String>,
    timeout: Option<Duration>,
    max_rows: Option<u64>,
    lossy: bool,
    max_parse_errors: Option<usize>,
    show_stats: bool,
    prometheus: bool,
    json: bool,
    cache: bool,
    cache_bytes: Option<usize>,
    no_cache: bool,
    addr: Option<String>,
    permits: Option<usize>,
    quota: Option<parj_server::admission::Quota>,
    serve_seconds: Option<f64>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        positional: Vec::new(),
        threads: None,
        morsel_size: None,
        load_threads: None,
        strategy: None,
        reasoning: false,
        calibrate: false,
        output: None,
        timeout: None,
        max_rows: None,
        lossy: false,
        max_parse_errors: None,
        show_stats: false,
        prometheus: false,
        json: false,
        cache: false,
        cache_bytes: None,
        no_cache: false,
        addr: None,
        permits: None,
        quota: None,
        serve_seconds: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                cli.threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--threads needs a number")?,
                )
            }
            "--morsel-size" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--morsel-size needs a number")?;
                if n == 0 {
                    return Err("--morsel-size must be at least 1".into());
                }
                cli.morsel_size = Some(n);
            }
            "--load-threads" => {
                cli.load_threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--load-threads needs a number")?,
                )
            }
            "--strategy" => {
                let s = it.next().ok_or("--strategy needs a value")?;
                cli.strategy = Some(match s.as_str() {
                    "binary" => ProbeStrategy::AlwaysBinary,
                    "adbinary" => ProbeStrategy::AdaptiveBinary,
                    "index" => ProbeStrategy::AlwaysIndex,
                    "adindex" => ProbeStrategy::AdaptiveIndex,
                    other => return Err(format!("unknown strategy {other:?}")),
                });
            }
            "--reasoning" => cli.reasoning = true,
            "--calibrate" => cli.calibrate = true,
            "--timeout" => {
                let secs: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--timeout needs a number of seconds")?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("--timeout must be a non-negative number".into());
                }
                cli.timeout = Some(Duration::from_secs_f64(secs));
            }
            "--max-rows" => {
                cli.max_rows = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-rows needs a number")?,
                )
            }
            "--cache" => cli.cache = true,
            "--cache-bytes" => {
                cli.cache_bytes = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--cache-bytes needs a number of bytes")?,
                );
                cli.cache = true;
            }
            "--no-cache" => cli.no_cache = true,
            "--addr" => cli.addr = Some(it.next().ok_or("--addr needs HOST:PORT")?),
            "--permits" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--permits needs a number")?;
                if n == 0 {
                    return Err("--permits must be at least 1".into());
                }
                cli.permits = Some(n);
            }
            "--quota" => {
                let spec = it.next().ok_or("--quota needs BURST/PER_SEC")?;
                let (burst, per_sec) = spec
                    .split_once('/')
                    .ok_or("--quota needs BURST/PER_SEC, e.g. 10/2.5")?;
                let burst: u32 = burst.parse().map_err(|_| "quota burst must be a number")?;
                let per_sec: f64 = per_sec
                    .parse()
                    .map_err(|_| "quota refill rate must be a number")?;
                if burst == 0 || !per_sec.is_finite() || per_sec <= 0.0 {
                    return Err("--quota burst and rate must be positive".into());
                }
                cli.quota = Some(parj_server::admission::Quota { burst, per_sec });
            }
            "--serve-seconds" => {
                let secs: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--serve-seconds needs a number of seconds")?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("--serve-seconds must be a non-negative number".into());
                }
                cli.serve_seconds = Some(secs);
            }
            "--lossy" => cli.lossy = true,
            "--stats" => cli.show_stats = true,
            "--prometheus" => cli.prometheus = true,
            "--json" => cli.json = true,
            "--max-parse-errors" => {
                cli.max_parse_errors = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-parse-errors needs a number")?,
                );
                cli.lossy = true;
            }
            "-o" | "--output" => cli.output = Some(it.next().ok_or("-o needs a path")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => cli.positional.push(other.to_string()),
        }
    }
    Ok(cli)
}

impl Cli {
    fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig {
            reasoning: self.reasoning,
            calibrate: self.calibrate,
            ..EngineConfig::default()
        };
        if let Some(t) = self.threads {
            cfg.threads = t.max(1);
        }
        if let Some(m) = self.morsel_size {
            cfg.morsel_size = m;
        }
        if let Some(t) = self.load_threads {
            cfg.load_threads = t.max(1);
        }
        if let Some(s) = self.strategy {
            cfg.strategy = s;
        }
        cfg.timeout = self.timeout;
        cfg.max_result_rows = self.max_rows;
        cfg.cache = self.cache;
        if let Some(b) = self.cache_bytes {
            cfg.cache_bytes = b;
        }
        cfg
    }

    /// The data-loading error policy selected by `--lossy` /
    /// `--max-parse-errors`.
    fn on_parse_error(&self) -> OnParseError {
        if self.lossy {
            OnParseError::Skip {
                max_errors: self.max_parse_errors.unwrap_or(usize::MAX),
            }
        } else {
            OnParseError::Abort
        }
    }

    /// Opens a store: `.parj` snapshots load directly, `.ttl` parses as
    /// Turtle, anything else as N-Triples (honoring the `--lossy`
    /// flags for text inputs).
    fn open(&self, path: &str) -> Result<Parj, ParjError> {
        if path.ends_with(".parj") {
            Parj::load_snapshot(path, self.engine_config())
        } else {
            let mut e = Parj::builder().build();
            let cfg = self.engine_config();
            // Rebuild with the requested config around the same data.
            let report = if path.ends_with(".ttl") || path.ends_with(".turtle") {
                e.load_turtle_path_with(path, self.on_parse_error())?
            } else {
                e.load_ntriples_path_with(path, self.on_parse_error())?
            };
            report_skips(&report);
            e.finalize();
            let store = parj_core::TripleStore::from_snapshot_bytes(
                &e.store().to_snapshot_bytes(),
            )?;
            Ok(Parj::from_store(store, cfg))
        }
    }

    /// Resolves a query argument: literal SPARQL, or `@file`.
    fn query_text(&self, arg: &str) -> Result<String, std::io::Error> {
        if let Some(path) = arg.strip_prefix('@') {
            std::fs::read_to_string(path)
        } else {
            Ok(arg.to_string())
        }
    }
}

/// Prints lossy-load diagnostics to stderr (nothing in strict mode).
fn report_skips(report: &parj_core::LoadReport) {
    if report.skipped == 0 {
        return;
    }
    eprintln!("warning: skipped {} malformed statement(s):", report.skipped);
    for e in &report.errors {
        eprintln!("  {e}");
    }
    if report.skipped > report.errors.len() {
        eprintln!("  … and {} more", report.skipped - report.errors.len());
    }
}

fn run() -> Result<(), Failure> {
    let cli = parse_cli().map_err(usage)?;
    let Some(command) = cli.positional.first().cloned() else {
        return Err(usage("missing command; try --help"));
    };
    match command.as_str() {
        "load" => {
            let [_, input] = &cli.positional[..] else {
                return Err(usage("usage: parj load <data.nt> -o <store.parj>"));
            };
            let out = cli.output.clone().ok_or_else(|| usage("load needs -o <store.parj>"))?;
            let mut e = Parj::builder().build();
            let report = if input.ends_with(".ttl") || input.ends_with(".turtle") {
                e.load_turtle_path_with(input, cli.on_parse_error())
                    .map_err(fail)?
            } else {
                e.load_ntriples_path_with(input, cli.on_parse_error())
                    .map_err(fail)?
            };
            report_skips(&report);
            e.finalize();
            e.save_snapshot(&out).map_err(fail)?;
            eprintln!(
                "loaded {} statements ({} distinct triples) -> {out}",
                report.loaded,
                e.num_triples()
            );
            Ok(())
        }
        "query" | "count" | "explain" | "profile" => {
            let [_, store_path, query_arg] = &cli.positional[..] else {
                return Err(usage(format!("usage: parj {command} <store> <sparql | @file>")));
            };
            let query = cli.query_text(query_arg).map_err(|e| usage(e.to_string()))?;
            let mut engine = cli.open(store_path).map_err(fail)?;
            match command.as_str() {
                "explain" => {
                    println!("{}", engine.explain(&query).map_err(fail)?);
                }
                "profile" => {
                    // EXPLAIN ANALYZE of a real single-threaded run.
                    let out = engine
                        .request(&query)
                        .threads(1)
                        .explain(true)
                        .count_only()
                        .run()
                        .map_err(fail)?;
                    println!("{}", out.profile.unwrap_or_default());
                }
                "count" => {
                    let mut req = engine.request(&query).count_only().explain(cli.show_stats);
                    if cli.no_cache {
                        req = req.bypass_cache();
                    }
                    let out = req.run().map_err(fail)?;
                    println!("{}", out.count);
                    if cli.show_stats {
                        eprint!("{}", out.report());
                    } else {
                        eprintln!(
                            "prepare {} µs, execute {} µs; {} sequential / {} binary / {} index searches",
                            out.stats.prepare_micros,
                            out.stats.exec_micros,
                            out.stats.search.sequential_searches,
                            out.stats.search.binary_searches,
                            out.stats.search.index_lookups,
                        );
                    }
                }
                _ => {
                    let mut req = engine.request(&query).explain(cli.show_stats);
                    if cli.no_cache {
                        req = req.bypass_cache();
                    }
                    let out = req.run().map_err(fail)?;
                    print!("{}", out.to_table().map_err(fail)?);
                    if cli.show_stats {
                        eprint!("{}", out.report());
                    } else {
                        eprintln!(
                            "{} rows in {} µs (prepare {} µs, decode {} µs)",
                            out.count,
                            out.stats.total_micros(),
                            out.stats.prepare_micros,
                            out.stats.decode_micros,
                        );
                    }
                }
            }
            Ok(())
        }
        "stats" => {
            let [_, store_path] = &cli.positional[..] else {
                return Err(usage("usage: parj stats <store>"));
            };
            let mut engine = cli.open(store_path).map_err(fail)?;
            if cli.prometheus || cli.json {
                let snap = engine.metrics_snapshot();
                if cli.prometheus {
                    print!("{}", snap.to_prometheus());
                } else {
                    println!("{}", snap.to_json());
                }
                return Ok(());
            }
            let store = engine.store();
            println!("triples:     {}", store.num_triples());
            println!("predicates:  {}", store.num_predicates());
            println!("resources:   {}", store.dict().num_resources());
            println!(
                "partitions:  {:.2} MiB",
                store.partitions_memory_bytes() as f64 / (1 << 20) as f64
            );
            println!(
                "dictionary:  {:.2} MiB",
                store.dict().memory_bytes() as f64 / (1 << 20) as f64
            );
            let mut parts: Vec<_> = store
                .partitions()
                .iter()
                .map(|p| (p.num_triples(), p.predicate()))
                .collect();
            parts.sort_unstable_by(|a, b| b.cmp(a));
            println!("top predicates:");
            for (n, pid) in parts.into_iter().take(10) {
                let term = store
                    .dict()
                    .decode_predicate(pid)
                    .map(|t| t.to_string())
                    .unwrap_or_else(|_| format!("#{pid}"));
                println!("  {n:>10}  {term}");
            }
            Ok(())
        }
        "audit" => {
            let [_, store_path] = &cli.positional[..] else {
                return Err(usage("usage: parj audit <store>"));
            };
            let mut engine = cli.open(store_path).map_err(fail)?;
            let start = std::time::Instant::now();
            let report = engine.audit();
            eprintln!(
                "audited {} triples in {:.1?} ({} checks)",
                engine.num_triples(),
                start.elapsed(),
                report.checks_run,
            );
            println!("{report}");
            if report.is_clean() {
                Ok(())
            } else {
                Err((exit_codes::CORRUPT, format!(
                    "{} invariant violation(s)",
                    report.violations.len()
                )))
            }
        }
        "generate" => {
            let [_, which, scale] = &cli.positional[..] else {
                return Err(usage("usage: parj generate <lubm|watdiv> <scale> -o <out.nt>"));
            };
            let scale: usize = scale.parse().map_err(|_| usage("scale must be a number"))?;
            let out = cli.output.clone().ok_or_else(|| usage("generate needs -o <out.nt>"))?;
            let file = std::fs::File::create(&out).map_err(|e| usage(e.to_string()))?;
            let mut w = std::io::BufWriter::new(file);
            use std::io::Write;
            let mut n = 0u64;
            match which.as_str() {
                "lubm" => parj_datagen::lubm::generate(
                    &parj_datagen::lubm::LubmConfig {
                        universities: scale,
                        seed: 7,
                    },
                    |s, p, o| {
                        writeln!(w, "{s} {p} {o} .").expect("write");
                        n += 1;
                    },
                ),
                "watdiv" => parj_datagen::watdiv::generate(
                    &parj_datagen::watdiv::WatDivConfig { scale, seed: 7 },
                    |s, p, o| {
                        writeln!(w, "{s} {p} {o} .").expect("write");
                        n += 1;
                    },
                ),
                other => return Err(usage(format!("unknown generator {other:?}"))),
            }
            eprintln!("wrote {n} triples -> {out}");
            Ok(())
        }
        "serve" => {
            let [_, store_path] = &cli.positional[..] else {
                return Err(usage("usage: parj serve <store> [--addr HOST:PORT] [flags]"));
            };
            let engine = cli.open(store_path).map_err(fail)?;
            let shared = std::sync::Arc::new(parj_core::SharedParj::new(engine));
            let mut config = parj_server::ServerConfig {
                addr: cli.addr.clone().unwrap_or_else(|| "127.0.0.1:7878".to_string()),
                quota: cli.quota,
                default_query_timeout: cli.timeout,
                ..parj_server::ServerConfig::default()
            };
            if let Some(p) = cli.permits {
                config.permits = p;
            }
            let mut server = parj_server::ParjServer::spawn(shared, config)
                .map_err(|e| usage(format!("cannot serve: {e}")))?;
            eprintln!(
                "serving on http://{} (endpoints: /sparql /metrics /healthz /readyz)",
                server.addr()
            );
            match cli.serve_seconds {
                Some(secs) => std::thread::sleep(Duration::from_secs_f64(secs)),
                None => {
                    // Portable foreground lifetime: serve until stdin is
                    // closed (Ctrl-D, or the supervisor closing the pipe).
                    eprintln!("close stdin (Ctrl-D) to drain and exit");
                    use std::io::Read;
                    let mut sink = Vec::new();
                    let _ = std::io::stdin().read_to_end(&mut sink);
                }
            }
            let report = server.shutdown();
            eprintln!("{report}");
            Ok(())
        }
        other => Err(usage(format!("unknown command {other:?}; try --help"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(code)
        }
    }
}
