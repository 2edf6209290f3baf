//! Algorithm 2 of the paper: the calibration micro-benchmark that finds
//! the window size at which binary search and sequential search cost the
//! same.
//!
//! > "This process takes place after data loading, prior to query
//! > execution, and tries to determine a distance (called WindowSize)
//! > such that when searching for a value ... at distance WindowSize
//! > from the position of the last accessed element ... BinarySearch and
//! > SequentialSearch perform roughly the same."
//!
//! Each iteration times `no_of_searches` probes spaced `WindowSize`
//! positions apart for both methods, then multiplies (or divides) the
//! window by the measured time ratio until the ratio drops below the
//! configured threshold. The paper reports convergence around **200
//! positions for binary search** and **20 for the ID-to-Position index**
//! on their hardware; those values double as our defaults when
//! calibration is skipped.

use std::hint::black_box;
use std::time::Instant;

use parj_dict::Id;
use parj_store::{IdPosIndex, SortOrder, TripleStore};

use crate::search::{binary_search_cursor, sequential_search};
use crate::stats::SearchStats;

/// Tuning for [`calibrate`] (the inputs of Algorithm 2 plus safety caps).
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// `NoOfSearches`: probes per timing measurement.
    pub no_of_searches: usize,
    /// `StartingWindowSize`: initial window in positions.
    pub starting_window: usize,
    /// `Threshold`: stop once `max(tB,tS)/min(tB,tS)` ≤ this (the paper
    /// uses "a value close to 1.0"; we default to 1.10).
    pub threshold_ratio: f64,
    /// Safety cap on iterations (the paper's loop has no cap; timing
    /// noise can make the ratio hover just above the threshold).
    pub max_iterations: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            no_of_searches: 2_000,
            starting_window: 64,
            threshold_ratio: 1.10,
            max_iterations: 24,
        }
    }
}

/// Output of calibration: the break-even windows (in key-array
/// positions) for the two random-access methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationResult {
    /// Window below which sequential search beats binary search.
    pub window_binary: usize,
    /// Window below which sequential search beats the ID-to-Position
    /// index (smaller: the index is cheaper than binary search, §5.2.1).
    pub window_index: usize,
    /// Iterations Algorithm 2 ran for the binary-search calibration.
    pub iterations_binary: usize,
    /// Iterations for the index calibration.
    pub iterations_index: usize,
}

impl CalibrationResult {
    /// The paper's measured defaults (§5.2.1: "when binary search is
    /// used, the result threshold is about 200 positions, whereas when
    /// ID-to-Position index is used the threshold is about 20").
    pub fn paper_defaults() -> Self {
        CalibrationResult {
            window_binary: 200,
            window_index: 20,
            iterations_binary: 0,
            iterations_index: 0,
        }
    }
}

/// One timed measurement: `no_of_searches` probes spaced `window`
/// positions apart, for a given search closure. Returns elapsed seconds
/// (floored to a small epsilon so ratios stay finite).
fn time_probes<F>(arr: &[Id], window: usize, no_of_searches: usize, mut f: F) -> f64
where
    F: FnMut(&[Id], Id, &mut usize, &mut SearchStats) -> Option<usize>,
{
    let mut stats = SearchStats::new();
    let avg_gap = ((arr[arr.len() - 1] - arr[0]) as f64 / arr.len() as f64).max(1.0);
    let total_gap = (avg_gap * window as f64).max(1.0) as u64;
    let span = (arr[arr.len() - 1] - arr[0]).max(1) as u64;
    let start = Instant::now();
    let mut cursor = 0usize;
    let mut to_find = arr[0] as u64;
    for _ in 0..no_of_searches {
        black_box(f(arr, to_find as Id, &mut cursor, &mut stats));
        to_find += total_gap;
        if to_find > arr[arr.len() - 1] as u64 {
            // Wrap within the key range so probes stay in-distribution.
            to_find = arr[0] as u64 + (to_find - arr[0] as u64) % span;
            cursor = 0;
        }
    }
    black_box(&stats);
    start.elapsed().as_secs_f64().max(1e-9)
}

/// Largest single-step window multiplier we trust. Timing a handful of
/// probes over a tiny or constant array can produce ratios in the
/// thousands (both measurements sit at the clock floor); letting such a
/// fraction drive the window would slam it to an array boundary and
/// report a garbage break-even point.
const MAX_STEP_RATIO: f64 = 64.0;

/// Algorithm 2 for one random-access method supplied as `random_access`.
/// Returns `Some((window, iterations))`, or `None` when the array is too
/// degenerate to measure (empty, near-singleton, or all-equal keys) —
/// the caller substitutes the paper's published default for the method.
fn calibrate_method<F>(
    arr: &[Id],
    cfg: &CalibrationConfig,
    mut random_access: F,
) -> Option<(usize, usize)>
where
    F: FnMut(&[Id], Id, &mut usize, &mut SearchStats) -> Option<usize>,
{
    if arr.len() < 16 || arr[arr.len() - 1] == arr[0] {
        // Degenerate array: every probe hits the same position, so the
        // two methods cannot be told apart. Signal "unmeasurable".
        return None;
    }
    let mut next_window = cfg.starting_window.max(1) as f64;
    let mut window;
    let mut iterations = 0;
    loop {
        window = next_window;
        iterations += 1;
        let w = (window as usize).clamp(1, arr.len() - 1);
        let time_binary = time_probes(arr, w, cfg.no_of_searches, &mut random_access);
        let time_scan = time_probes(arr, w, cfg.no_of_searches, sequential_search);
        // Both timings are floored at 1e-9 s, so the ratio is finite;
        // clamp it anyway so a near-zero denominator (sub-resolution
        // measurement) cannot catapult the window across the array.
        let fraction = if time_binary > time_scan {
            let fraction = (time_binary / time_scan).clamp(1.0, MAX_STEP_RATIO);
            next_window = window * fraction;
            fraction
        } else {
            let fraction = (time_scan / time_binary).clamp(1.0, MAX_STEP_RATIO);
            next_window = window / fraction;
            fraction
        };
        // Keep the window inside the array, and stop per the paper's
        // condition or the safety cap.
        next_window = next_window.clamp(1.0, (arr.len() - 1) as f64);
        if fraction <= cfg.threshold_ratio || iterations >= cfg.max_iterations {
            break;
        }
    }
    Some(((window as usize).clamp(1, arr.len() - 1), iterations))
}

/// Runs Algorithm 2 against the largest replica of `store` — once for
/// binary search and once for the ID-to-Position index (when the store
/// has one) — and returns the two break-even windows.
///
/// The largest keys array is the representative workload: calibration
/// measures machine behaviour (cache hierarchy), not data distribution,
/// which the per-replica threshold conversion (see
/// [`crate::ThresholdTable`]) handles separately.
pub fn calibrate(store: &TripleStore, cfg: &CalibrationConfig) -> CalibrationResult {
    // Find the replica with the most keys.
    let mut best: Option<(&[Id], Option<&IdPosIndex>)> = None;
    for part in store.partitions() {
        for order in [SortOrder::SO, SortOrder::OS] {
            let r = part.replica(order);
            if best.is_none_or(|(keys, _)| r.keys().len() > keys.len()) {
                best = Some((r.keys(), r.idpos()));
            }
        }
    }
    let Some((keys, idpos)) = best else {
        let d = CalibrationResult::paper_defaults();
        return d;
    };
    if keys.len() < 16 {
        return CalibrationResult::paper_defaults();
    }
    // Each method falls back to the paper's published break-even window
    // independently when its measurement is degenerate.
    let defaults = CalibrationResult::paper_defaults();
    let (window_binary, iterations_binary) =
        calibrate_method(keys, cfg, binary_search_cursor).unwrap_or((defaults.window_binary, 0));
    let (window_index, iterations_index) = match idpos {
        Some(idx) => calibrate_method(keys, cfg, |arr, v, cursor, stats| {
            stats.index_lookups += 1;
            stats.index_words += 2;
            let pos = idx.lookup(v);
            if let Some(p) = pos {
                *cursor = p;
            }
            let _ = arr;
            pos
        })
        .unwrap_or((defaults.window_index, 0)),
        None => (defaults.window_index, 0),
    };
    CalibrationResult {
        window_binary,
        window_index,
        iterations_binary,
        iterations_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;
    use parj_store::StoreBuilder;

    fn big_store(n: u32) -> TripleStore {
        let mut b = StoreBuilder::new();
        for i in 0..n {
            b.add_term_triple(
                &Term::iri(format!("s{i:07}")),
                &Term::iri("p"),
                &Term::iri(format!("o{:07}", i / 4)),
            );
        }
        b.build()
    }

    #[test]
    fn calibration_converges_to_sane_window() {
        let store = big_store(200_000);
        let cfg = CalibrationConfig {
            no_of_searches: 500,
            ..CalibrationConfig::default()
        };
        let result = calibrate(&store, &cfg);
        // The break-even window must be inside the array and positive;
        // its absolute value is hardware-dependent.
        assert!(result.window_binary >= 1);
        assert!(result.window_binary < 200_000);
        assert!(result.window_index >= 1);
        assert!(result.iterations_binary >= 1);
    }

    #[test]
    fn empty_and_tiny_stores_fall_back_to_defaults() {
        let store = StoreBuilder::new().build();
        let r = calibrate(&store, &CalibrationConfig::default());
        assert_eq!(r.window_binary, 200);
        let store = big_store(4);
        let r = calibrate(&store, &CalibrationConfig::default());
        assert_eq!(r.window_binary, 200);
        assert_eq!(r.window_index, 20);
    }

    #[test]
    fn degenerate_arrays_are_unmeasurable() {
        // Grid of degenerate key arrays: empty, singleton, tiny, and
        // all-equal (zero span). Every one must be reported as
        // unmeasurable — never a garbage window — and must not loop
        // forever or divide by zero along the way.
        let grid: Vec<Vec<Id>> = vec![
            vec![],
            vec![7],
            vec![3, 9],
            (0..15).collect(),
            vec![7; 100],
            vec![u32::MAX; 64],
            vec![0; 16],
        ];
        for arr in &grid {
            let got = calibrate_method(arr, &CalibrationConfig::default(), binary_search_cursor);
            assert_eq!(got, None, "array {:?}.. (len {})", arr.first(), arr.len());
        }
        // A minimal measurable array still yields a real window.
        let arr: Vec<Id> = (0..16).map(|i| i * 10).collect();
        let cfg = CalibrationConfig {
            no_of_searches: 50,
            max_iterations: 2,
            ..CalibrationConfig::default()
        };
        let (w, iters) = calibrate_method(&arr, &cfg, binary_search_cursor).unwrap();
        assert!((1..arr.len()).contains(&w));
        assert!(iters >= 1);
    }

    #[test]
    fn all_equal_keys_store_falls_back_to_paper_defaults() {
        // A store whose largest replica has all-equal keys (every triple
        // shares one subject) previously returned the starting window
        // (64) instead of the paper defaults (200/20).
        let mut b = StoreBuilder::new();
        for i in 0..100u32 {
            b.add_term_triple(
                &Term::iri("s"),
                &Term::iri("p"),
                &Term::iri(format!("o{i:03}")),
            );
        }
        let store = b.build();
        let r = calibrate(&store, &CalibrationConfig::default());
        // OS order has 100 distinct object keys, so that side may
        // measure; the degenerate SO side must not poison the result:
        // windows stay within the paper default or a measured range,
        // never the raw starting window on an unmeasurable array.
        assert!(r.window_binary >= 1);
        // Force the truly degenerate path through calibrate_method.
        let part = &store.partitions()[0];
        let so_keys = part.replica(SortOrder::SO).keys();
        assert_eq!(so_keys.len(), 1);
        assert_eq!(
            calibrate_method(so_keys, &CalibrationConfig::default(), binary_search_cursor),
            None
        );
    }

    #[test]
    fn iteration_cap_respected() {
        let store = big_store(50_000);
        let cfg = CalibrationConfig {
            no_of_searches: 50,
            threshold_ratio: 1.0000001, // unreachable: forces the cap
            max_iterations: 3,
            ..CalibrationConfig::default()
        };
        let r = calibrate(&store, &cfg);
        assert!(r.iterations_binary <= 3);
        assert!(r.iterations_index <= 3);
    }
}
