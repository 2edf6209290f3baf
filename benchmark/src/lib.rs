//! # The measurement spine
//!
//! One harness (`parj-bench`), four named workloads, end-to-end metrics
//! with regression bounds and per-layer metrics from a separate traced
//! run. The contract — command, workloads, metric names, units,
//! directions, bounds — is `BENCHMARK.json` at the repository root;
//! `README.md` beside this crate explains every choice.
//!
//! The product crates are measured from outside: the harness times
//! calls into their public functions and reads the values those
//! functions already return.

#![forbid(unsafe_code)]

pub mod compare;
pub mod http;
pub mod json;
pub mod metrics;
pub mod micro;
pub mod oracle;
pub mod profile;
pub mod run;
pub mod timing;
pub mod trace;
pub mod workloads;

use parj_core::EngineConfig;

/// Cores the sandbox offers (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Query and load threads of the end-to-end runs: at most two, and one
/// core fewer than the sandbox has. The sandbox's two vCPUs are the two
/// hyperthreads of one core of a shared host. Whatever else becomes
/// runnable in the guest — the harness that started the run, another
/// run beside this one — needs one of them; with both taken by the
/// engine it preempts a worker the other worker then waits for, and
/// identical 2-thread runs spread by half their median. On 2 cores that
/// leaves one thread; the traced runs measure the 2-thread path on its
/// own (`join.speedup_2t`, `join.makespan_ratio`, `join.pool_jobs`).
pub fn bench_threads() -> usize {
    nproc().saturating_sub(1).clamp(1, 2)
}

/// What users get by default — compression on, cache off, pool on —
/// except that query and load threads are pinned to [`bench_threads`].
pub fn bench_config() -> EngineConfig {
    EngineConfig {
        threads: bench_threads(),
        load_threads: bench_threads(),
        ..EngineConfig::default()
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Deterministic PRNG (splitmix64) for everything `--seed` drives on
/// the harness side: query order and mutation triples.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
