//! `parj-bench` — the one entry point of the measurement spine.
//!
//! ```text
//! parj-bench run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! parj-bench bless [--seed N] [--out DIR]
//! parj-bench compare <set-a> <set-b> [--benchmark-json PATH]
//! parj-bench repeat --out DIR [--sets N] [--runs N] [--seed N] [--seconds S] [--quick] [--benchmark-json PATH]
//! ```
//!
//! `run` executes one workload in this process (so `peak_rss_mb` is the
//! workload's own), prints every metric as `name unit value`, and ends
//! its standard output with the one-line JSON result.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use parj_benchmark::compare;
use parj_benchmark::json::Value;
use parj_benchmark::oracle::DEFAULT_SEED;
use parj_benchmark::run::{record, result_line, RunArgs, Sizes};
use parj_benchmark::workloads::{bulk_load, lubm_scan, mutate_read, watdiv_serve, Workload};
use parj_datagen::lubm::LubmConfig;
use parj_datagen::watdiv::WatDivConfig;

const USAGE: &str = "usage: parj-bench run --workload <lubm_scan|watdiv_serve|mutate_read|bulk_load> \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
       parj-bench bless [--seed N] [--out DIR]
       parj-bench compare <set-a> <set-b> [--benchmark-json PATH]
       parj-bench repeat --out DIR [--sets N] [--runs N] [--seed N] [--seconds S] [--quick] [--benchmark-json PATH]";

/// Flags shared by the subcommands; positionals are kept in order.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    sets: usize,
    runs: usize,
    benchmark_json: PathBuf,
    positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 24.0,
        trace: false,
        quick: false,
        out: None,
        sets: 2,
        runs: 3,
        benchmark_json: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| format!("{flag}: cannot read {s:?} as a number"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, arg)?.clone()),
            "--seed" => cli.seed = number(value(&mut it, arg)?, arg)?,
            "--seconds" => cli.seconds = number(value(&mut it, arg)?, arg)?,
            "--sets" => cli.sets = number(value(&mut it, arg)?, arg)?,
            "--runs" => cli.runs = number(value(&mut it, arg)?, arg)?,
            "--out" => cli.out = Some(PathBuf::from(value(&mut it, arg)?)),
            "--benchmark-json" => cli.benchmark_json = PathBuf::from(value(&mut it, arg)?),
            "--quick" => cli.quick = true,
            // `--trace 0|1` for the driver; a bare `--trace` means on.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    let name = cli.workload.as_deref().ok_or("run needs --workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    if cfg!(debug_assertions) && !cli.quick {
        return Err("refusing to time a debug build: build with --release (or pass --quick for a smoke run)".into());
    }
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        out: cli.out.clone(),
    };
    let outcome = workload.run(&args);
    for line in &outcome.complaints {
        eprintln!("FAILED CHECK [{name}]: {line}");
    }
    let rec = record(&args, &outcome);
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = format!("{name}.seed{}.trace{}", args.seed, u8::from(args.trace));
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, rec.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(tracer) = &outcome.tracer {
            let path = dir.join(format!("{stem}.jsonl"));
            let file =
                std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut w = std::io::BufWriter::new(file);
            tracer
                .write_jsonl(&mut w)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            std::io::Write::flush(&mut w).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    for (metric, unit, value) in outcome.metrics.listed(args.trace) {
        println!("{metric} {unit} {value}");
    }
    println!(
        "# {name} seed={} trace={} samples={} tail_percentile={} triples={} duration_s={:.1}",
        args.seed,
        u8::from(args.trace),
        outcome.samples,
        outcome.tail_percentile,
        outcome.triples,
        outcome.duration_s
    );
    println!("{}", result_line(&rec));
    Ok(ExitCode::SUCCESS)
}

fn bless(cli: &Cli) -> Result<ExitCode, String> {
    let dir = cli
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/expected"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Full-size data: pins apply to real runs, never to --quick.
    let sizes = Sizes::FULL;
    let lubm = LubmConfig {
        universities: sizes.lubm,
        seed: cli.seed,
    };
    let watdiv = WatDivConfig {
        scale: sizes.watdiv,
        seed: cli.seed,
    };
    let document = bulk_load::Document::new(sizes, cli.seed);
    let pins: [(Workload, Value); 4] = [
        (Workload::LubmScan, lubm_scan::expectation(&lubm)),
        (Workload::WatdivServe, watdiv_serve::expectation(&watdiv)),
        (Workload::MutateRead, mutate_read::pinned_expectation(&lubm)),
        (Workload::BulkLoad, document.expectation()),
    ];
    for (workload, value) in pins {
        let path = dir.join(format!("{}.seed{}.json", workload.name(), cli.seed));
        std::fs::write(&path, value.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("pinned {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_sets(a: &Path, b: &Path, benchmark_json: &Path) -> Result<ExitCode, String> {
    let specs = compare::load_specs(benchmark_json)?;
    let rows = compare::compare(&compare::load_set(a)?, &compare::load_set(b)?, &specs);
    print!("{}", compare::render(&rows));
    Ok(if compare::any_regression(&rows) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn repeat(cli: &Cli) -> Result<ExitCode, String> {
    let out = cli.out.as_deref().ok_or("repeat needs --out")?;
    if cli.sets < 2 || cli.runs < 1 {
        return Err("repeat needs --sets >= 2 and --runs >= 1".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let set_dir = |set: usize| out.join(format!("set{set}"));
    for set in 1..=cli.sets {
        for run in 1..=cli.runs {
            for workload in Workload::ALL {
                // Its own process per run, so peak_rss_mb is per workload.
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", workload.name(), "--trace", "0"])
                    .args([
                        "--seed",
                        &cli.seed.to_string(),
                        "--seconds",
                        &cli.seconds.to_string(),
                    ])
                    .arg("--out")
                    .arg(set_dir(set).join(format!("run{run}")))
                    .stdout(std::process::Stdio::null());
                if cli.quick {
                    cmd.arg("--quick");
                }
                eprintln!("set {set} run {run}: {}", workload.name());
                let status = cmd
                    .status()
                    .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!("{} failed with {status}", workload.name()));
                }
            }
        }
    }
    let mut code = ExitCode::SUCCESS;
    for set in 2..=cli.sets {
        println!("set1 vs set{set}");
        if compare_sets(&set_dir(1), &set_dir(set), &cli.benchmark_json)? == ExitCode::FAILURE {
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result =
        parse_cli(rest).and_then(|cli| match (command.as_str(), cli.positional.as_slice()) {
            ("run", []) => run(&cli),
            ("bless", []) => bless(&cli),
            ("compare", [a, b]) => compare_sets(Path::new(a), Path::new(b), &cli.benchmark_json),
            ("repeat", []) => repeat(&cli),
            _ => Err(USAGE.to_string()),
        });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("parj-bench: {message}");
            ExitCode::from(2)
        }
    }
}
