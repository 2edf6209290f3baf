//! One run of one workload: arguments, the shared end-to-end
//! arithmetic, and the record that is printed and written.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::{self, Value};
use crate::metrics::MetricSet;
use crate::timing::{self, Tail};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Arguments of `parj-bench run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window (traced runs size their fixed pass
    /// counts from it, so equal arguments replay equal work).
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizing: scale 2, one set-up, tiny microbenches. The
    /// only mode a debug build will run.
    pub quick: bool,
    pub out: Option<PathBuf>,
}

/// Dataset sizes and repetition counts of a run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// LUBM universities (≈15 k triples each) of the query store.
    pub lubm: usize,
    /// WatDiv scale units (≈2.5 k triples each).
    pub watdiv: usize,
    /// LUBM universities generated for the `bulk_load` document, and
    /// how many of their statements go into it: the same number on
    /// every seed (universities differ in size by a third), and far
    /// fewer than the query store holds on purpose. A load of 90 000
    /// statements takes ~0.14 s on one load thread, so each 2 s round
    /// of the window holds ~14 of them and the quiet rounds ~55, enough
    /// for a p80 tail; LUBM-60 would give one load per round. Cost per
    /// triple is the same within 15 %.
    pub load: usize,
    pub load_statements: usize,
    /// Set-ups at each end of the window ([`Setups`]).
    pub setups: usize,
    /// Probes per microbench loop.
    pub probes: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        lubm: 60,
        watdiv: 40,
        load: 8,
        load_statements: 90_000,
        setups: 3,
        probes: 400_000,
    };
    pub const QUICK: Sizes = Sizes {
        lubm: 2,
        watdiv: 2,
        load: 2,
        load_statements: 20_000,
        setups: 1,
        probes: 20_000,
    };
}

impl RunArgs {
    pub fn sizes(&self) -> Sizes {
        if self.quick {
            Sizes::QUICK
        } else {
            Sizes::FULL
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
    /// Timed samples behind the latency metrics.
    pub samples: u64,
    /// Op rate of each round of the window, in order (empty in traced
    /// runs): shows how much of the window a neighbour's burst covered.
    pub round_ops_per_s: Vec<f64>,
    /// Percentile `op_tail_ms` was read at (0 in traced runs).
    pub tail_percentile: f64,
    pub duration_s: f64,
    /// Visible triples at the end of the run.
    pub triples: u64,
    pub tracer: Option<Tracer>,
    /// Human-readable lines about failed checks.
    pub complaints: Vec<String>,
}

/// The set-ups of a run. A run sets up [`Sizes::setups`] times before
/// its window and as often after it, and `setup_s` is the median of the
/// fastest third of all of them: a neighbour's burst on the shared host
/// lengthens the set-ups it covers, and one burst seldom covers both
/// ends of a window.
#[derive(Debug, Default)]
pub struct Setups {
    times_s: Vec<f64>,
}

impl Setups {
    /// Runs `build` `n` times, dropping each result before the next
    /// build so peak memory is one instance's; returns the last.
    pub fn run<T>(&mut self, n: usize, mut build: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..n.max(1) {
            drop(last.take());
            let t = Instant::now();
            last = Some(build());
            self.times_s.push(t.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up ran")
    }

    pub fn quiet_s(&self) -> f64 {
        timing::quiet_median(&self.times_s)
    }
}

/// Rounds a timed window is cut into.
pub const ROUNDS: usize = 12;

/// Latencies, in ms, of the ops one client completed back to back in
/// one round.
#[derive(Debug, Default)]
pub struct Round {
    pub lat_ms: Vec<f64>,
}

impl Round {
    /// Ops per second of time spent in ops. One closed-loop client:
    /// that time is the round's wall time less the loop's bookkeeping.
    pub fn ops_per_s(&self) -> f64 {
        self.lat_ms.len() as f64 / (self.lat_ms.iter().sum::<f64>() / 1e3)
    }
}

/// The ops of one closed-loop window, round by round.
#[derive(Debug, Default)]
pub struct OpLog {
    pub rounds: Vec<Round>,
}

impl OpLog {
    /// One client calls `op` back to back for `seconds`, in [`ROUNDS`]
    /// rounds of equal length (each at least one op). `op` times itself
    /// and returns its latency in ms, so a workload decides what of an
    /// iteration is the op.
    pub fn measure(seconds: f64, mut op: impl FnMut() -> f64) -> OpLog {
        let rounds = (0..ROUNDS)
            .map(|_| {
                let mut round = Round::default();
                let start = Instant::now();
                while round.lat_ms.is_empty()
                    || start.elapsed().as_secs_f64() < seconds / ROUNDS as f64
                {
                    round.lat_ms.push(op());
                }
                round
            })
            .collect();
        OpLog { rounds }
    }

    /// Ops completed in the whole window.
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.lat_ms.len() as u64).sum()
    }

    /// Op rate of each round, in window order.
    pub fn round_rates(&self) -> Vec<f64> {
        self.rounds.iter().map(Round::ops_per_s).collect()
    }

    /// The fastest third of the rounds by op rate, pooled. The host is
    /// shared: a neighbour's burst slows whole rounds, by a third or
    /// more, and a window's median then says how much of the window the
    /// burst covered. A slower program slows every round alike, these
    /// too.
    pub fn quiet(&self) -> Round {
        let mut ranked: Vec<&Round> = self.rounds.iter().collect();
        ranked.sort_by(|a, b| b.ops_per_s().total_cmp(&a.ops_per_s()));
        ranked.truncate(timing::quiet_count(ranked.len()));
        Round {
            lat_ms: ranked
                .into_iter()
                .flat_map(|r| r.lat_ms.iter().copied())
                .collect(),
        }
    }
}

/// What [`end_to_end`] read the latency metrics from.
pub struct Measured {
    /// Ops in the quiet rounds.
    pub samples: u64,
    pub tail: Tail,
}

/// Fills in every end-to-end metric but `setup_s` from a window's log.
/// Call it when the window ends: it reads the peak resident set, which
/// the oracle and the second half of the set-ups must not reach.
pub fn end_to_end(
    m: &mut MetricSet,
    log: &OpLog,
    resident_bytes: usize,
    triples: usize,
) -> Measured {
    let quiet = log.quiet();
    let tail = timing::tail(&quiet.lat_ms).expect("every round completes at least one op");
    m.set("ops_per_s", quiet.ops_per_s());
    m.set("op_p50_ms", timing::median(&quiet.lat_ms));
    m.set("op_tail_ms", tail.value);
    m.set(
        "resident_bytes_per_triple",
        resident_bytes as f64 / triples.max(1) as f64,
    );
    m.set("peak_rss_mb", crate::peak_rss_mb());
    Measured {
        samples: quiet.lat_ms.len() as u64,
        tail,
    }
}

fn git_rev() -> String {
    // The driver's checkout is not a git repository; the record then
    // says so instead of failing.
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The full record of a run (`<out>/<workload>.seed<N>.trace<T>.json`).
pub fn record(args: &RunArgs, out: &Outcome) -> Value {
    let cfg = crate::bench_config();
    let metrics = out
        .metrics
        .listed(args.trace)
        .into_iter()
        .map(|(name, unit, value)| {
            (
                name,
                json::obj([("value", json::num(value)), ("unit", json::string(unit))]),
            )
        });
    json::obj([
        ("workload", json::string(args.workload.name())),
        ("seed", json::count(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("quick", Value::Bool(args.quick)),
        ("git_rev", json::string(git_rev())),
        ("nproc", json::count(crate::nproc() as u64)),
        ("available_parallelism", json::count(crate::nproc() as u64)),
        ("simd_active", Value::Bool(parj_store::simd_active())),
        (
            "engine_config",
            json::obj([
                ("threads", json::count(cfg.threads as u64)),
                ("load_threads", json::count(cfg.load_threads as u64)),
                ("morsel_size", json::count(cfg.morsel_size as u64)),
                ("use_pool", Value::Bool(cfg.use_pool)),
                ("strategy", json::string(cfg.strategy.label())),
                ("cache", Value::Bool(cfg.cache)),
                ("compress_replicas", Value::Bool(cfg.compress_replicas)),
                (
                    "compress_min_values",
                    json::count(cfg.compress_min_values as u64),
                ),
                (
                    "delta_compaction_threshold",
                    json::count(cfg.delta_compaction_threshold as u64),
                ),
                ("record_metrics", Value::Bool(cfg.record_metrics)),
            ]),
        ),
        ("window_s", json::num(args.seconds)),
        ("duration_s", json::num(out.duration_s)),
        ("samples", json::count(out.samples)),
        (
            "round_ops_per_s",
            Value::Arr(out.round_ops_per_s.iter().map(|&r| json::num(r)).collect()),
        ),
        ("tail_percentile", json::num(out.tail_percentile)),
        ("triples", json::count(out.triples)),
        ("attempted", json::count(out.attempted)),
        // A query that disagrees with the oracle fails every op that ran
        // it; several such queries can share ops.
        ("failed", json::count(out.failed.min(out.attempted))),
        ("correct", Value::Bool(out.failed == 0)),
        ("metrics", json::obj(metrics)),
    ])
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(record: &Value) -> String {
    let fields = ["correct", "attempted", "failed", "metrics"];
    json::obj(fields.map(|k| (k, record.get(k).expect("record field").clone()))).render()
}
