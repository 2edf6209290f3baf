//! The search primitives and Algorithm 1, the adaptive switch between
//! sequential search from the cursor and a random-access method.

use parj_dict::Id;
use parj_store::IdPosIndex;

use crate::stats::SearchStats;

/// Which probe method the executor uses on replica key arrays.
///
/// The four named strategies are exactly the four measured columns of
/// the paper's Table 5; `AlwaysSequential` is a degenerate control used
/// by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbeStrategy {
    /// Always whole-array binary search (Table 5 column "Binary").
    AlwaysBinary,
    /// Algorithm 1 switching between binary and sequential search
    /// (column "AdBinary").
    AdaptiveBinary,
    /// Always the ID-to-Position index (column "Index"); falls back to
    /// binary search on replicas without an index.
    AlwaysIndex,
    /// Algorithm 1 switching between the ID-to-Position index and
    /// sequential search (column "AdIndex"); on replicas without an
    /// index every probe is sequential, which gallops once a scan runs
    /// long. This is PARJ's default.
    #[default]
    AdaptiveIndex,
    /// Always sequential search from the cursor (test-only control; not
    /// in the paper's tables).
    AlwaysSequential,
}

impl ProbeStrategy {
    /// All four paper strategies, in Table 5 column order.
    pub const TABLE5: [ProbeStrategy; 4] = [
        ProbeStrategy::AlwaysBinary,
        ProbeStrategy::AdaptiveBinary,
        ProbeStrategy::AlwaysIndex,
        ProbeStrategy::AdaptiveIndex,
    ];

    /// Short label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            ProbeStrategy::AlwaysBinary => "Binary",
            ProbeStrategy::AdaptiveBinary => "AdBinary",
            ProbeStrategy::AlwaysIndex => "Index",
            ProbeStrategy::AdaptiveIndex => "AdIndex",
            ProbeStrategy::AlwaysSequential => "Sequential",
        }
    }
}

impl std::fmt::Display for ProbeStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Steps in one direction before sequential search switches to
/// galloping (exponential) probes. Algorithm 1 only picks sequential
/// search when the predicted distance is inside the calibrated window,
/// so almost all scans finish within a handful of steps; the few that
/// run long (skewed data breaking the §4.1 uniform-gap assumption)
/// degrade to O(log gap) instead of O(gap).
const GALLOP_AFTER: usize = 8;

/// Sequential search for `value` starting at `*cursor`, scanning in
/// whichever direction the sort order dictates ("continuing from the
/// position that the cursor has been left from a previous search").
///
/// Returns the position of `value` if present. The cursor is updated on
/// both hits and misses — on a miss it rests on the element nearest the
/// probe, so the next nearby probe stays cheap (Algorithm 1: "the
/// cursor_position is updated each time for both successful and
/// unsuccessful searches").
///
/// After `GALLOP_AFTER` consecutive steps the scan switches to
/// galloping: exponentially growing jumps bracket the target, then a
/// binary search inside the bracket finishes in O(log gap). Hit
/// results and the cursor's resting position are identical to the
/// plain scan; gallop and bracket probes are counted as
/// `sequential_steps`.
#[inline]
pub fn sequential_search(
    arr: &[Id],
    value: Id,
    cursor: &mut usize,
    stats: &mut SearchStats,
) -> Option<usize> {
    if arr.is_empty() {
        return None;
    }
    let mut i = (*cursor).min(arr.len() - 1);
    stats.sequential_searches += 1;
    stats.sequential_steps += 1; // the element under the cursor
    if arr[i] < value {
        let mut steps = 0usize;
        while arr[i] < value {
            if i + 1 == arr.len() {
                *cursor = i;
                return None;
            }
            steps += 1;
            if steps > GALLOP_AFTER {
                return gallop_forward(arr, value, i, cursor, stats);
            }
            i += 1;
            stats.sequential_steps += 1;
        }
    } else {
        let mut steps = 0usize;
        while arr[i] > value {
            if i == 0 {
                *cursor = 0;
                return None;
            }
            steps += 1;
            if steps > GALLOP_AFTER {
                return gallop_backward(arr, value, i, cursor, stats);
            }
            i -= 1;
            stats.sequential_steps += 1;
        }
    }
    *cursor = i;
    (arr[i] == value).then_some(i)
}

/// Galloping tail of a forward scan: `arr[from] < value` and `from` is
/// not the last index. Finds the first element `>= value` — exactly
/// where the plain scan would stop — in O(log gap).
#[cold]
fn gallop_forward(
    arr: &[Id],
    value: Id,
    from: usize,
    cursor: &mut usize,
    stats: &mut SearchStats,
) -> Option<usize> {
    debug_assert!(arr[from] < value && from < arr.len() - 1);
    let last = arr.len() - 1;
    let mut lo = from; // invariant: arr[lo] < value
    let mut jump = 1usize;
    let hi = loop {
        // Every probe is clamped to `last`: the gallop can never
        // overshoot the run (or block) boundary, however large the
        // jump grows. `saturating_*` keeps the arithmetic itself from
        // wrapping on pathological cursor positions.
        let cand = lo.saturating_add(jump).min(last);
        stats.sequential_steps += 1;
        if arr[cand] >= value {
            break cand;
        }
        if cand == last {
            // Ran off the end: like the plain scan, rest on the last
            // element.
            *cursor = last;
            return None;
        }
        lo = cand;
        jump = jump.saturating_mul(2);
    };
    // Binary search the bracket (lo, hi] for the first element >= value.
    let (mut l, mut h) = (lo + 1, hi);
    while l < h {
        let mid = l + (h - l) / 2;
        stats.sequential_steps += 1;
        if arr[mid] < value {
            l = mid + 1;
        } else {
            h = mid;
        }
    }
    *cursor = l;
    (arr[l] == value).then_some(l)
}

/// Galloping tail of a backward scan: `arr[from] > value` and
/// `from > 0`. Finds the last element `<= value` (or index 0) —
/// exactly where the plain scan would stop — in O(log gap).
#[cold]
fn gallop_backward(
    arr: &[Id],
    value: Id,
    from: usize,
    cursor: &mut usize,
    stats: &mut SearchStats,
) -> Option<usize> {
    debug_assert!(arr[from] > value && from > 0);
    let mut hi = from; // invariant: arr[hi] > value
    let mut jump = 1usize;
    let lo = loop {
        // Clamped at index 0 by `saturating_sub` — the mirror-image of
        // the forward clamp, so the backward gallop cannot overshoot
        // the run start either.
        let cand = hi.saturating_sub(jump);
        stats.sequential_steps += 1;
        if arr[cand] <= value {
            break cand;
        }
        if cand == 0 {
            // Ran off the start: like the plain scan, rest on index 0.
            *cursor = 0;
            return None;
        }
        hi = cand;
        jump = jump.saturating_mul(2);
    };
    // Binary search the bracket [lo, hi) for the last element <= value.
    let (mut l, mut h) = (lo, hi - 1);
    while l < h {
        let mid = l + (h - l).div_ceil(2);
        stats.sequential_steps += 1;
        if arr[mid] > value {
            h = mid - 1;
        } else {
            l = mid;
        }
    }
    *cursor = l;
    (arr[l] == value).then_some(l)
}

/// Whole-array binary search, updating the cursor to the last examined
/// position.
///
/// Per §4.1 the search deliberately spans the full array rather than the
/// sub-range suggested by the cursor: "always performing binary search
/// on the whole array leads to the array positions visited during the
/// first steps to frequently occur in cache".
#[inline]
pub fn binary_search_cursor(
    arr: &[Id],
    value: Id,
    cursor: &mut usize,
    stats: &mut SearchStats,
) -> Option<usize> {
    stats.binary_searches += 1;
    let mut lo = 0usize;
    let mut hi = arr.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        stats.binary_steps += 1;
        *cursor = mid;
        match arr[mid].cmp(&value) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some(mid),
        }
    }
    // Miss: rest the cursor on the element nearest the insertion point.
    *cursor = lo.min(arr.len().saturating_sub(1));
    None
}

/// ID-to-Position lookup, updating the cursor so a subsequent adaptive
/// decision measures distance from the found position.
#[inline]
fn index_search(
    idx: &IdPosIndex,
    value: Id,
    cursor: &mut usize,
    stats: &mut SearchStats,
) -> Option<usize> {
    stats.index_lookups += 1;
    // One bitmap word + (amortized) one anchor + partial-block words; we
    // charge the §4.2 claim of "one memory access and some computation"
    // as 2 words (bit word + anchor) — partial-block popcounts stay in
    // the same cache line for interval ≤ 512.
    stats.index_words += 2;
    // A miss is answered by the bitmap alone and leaves the cursor
    // where it was (no better information).
    let pos = idx.lookup(value)?;
    *cursor = pos;
    Some(pos)
}

/// Algorithm 1 of the paper: adaptively switch between sequential search
/// from the cursor and a random-access method (binary search or
/// ID-to-Position lookup) based on the value distance.
///
/// `threshold` is in **value space**: the calibration's position window
/// multiplied by the replica's average inter-key gap (§4.1's uniform
/// distribution assumption). `index` supplies the ID-to-Position index
/// for the index-based strategies. Without one, `AdaptiveIndex` probes
/// sequentially at any distance (the scan gallops, so a far probe costs
/// O(log gap)) and `AlwaysIndex` falls back to binary search.
#[inline]
pub fn adaptive_search(
    arr: &[Id],
    value: Id,
    cursor: &mut usize,
    threshold: i64,
    strategy: ProbeStrategy,
    index: Option<&IdPosIndex>,
    stats: &mut SearchStats,
) -> Option<usize> {
    if arr.is_empty() {
        return None;
    }
    match strategy {
        ProbeStrategy::AlwaysSequential => sequential_search(arr, value, cursor, stats),
        ProbeStrategy::AlwaysBinary => binary_search_cursor(arr, value, cursor, stats),
        ProbeStrategy::AlwaysIndex => match index {
            Some(idx) => index_search(idx, value, cursor, stats),
            None => binary_search_cursor(arr, value, cursor, stats),
        },
        ProbeStrategy::AdaptiveBinary | ProbeStrategy::AdaptiveIndex => {
            // Lines 2-3 of Algorithm 1: one subtraction, one absolute
            // value, one comparison.
            let at = (*cursor).min(arr.len() - 1);
            let distance = arr[at] as i64 - value as i64;
            if distance.abs() <= threshold {
                sequential_search(arr, value, cursor, stats)
            } else if strategy == ProbeStrategy::AdaptiveBinary {
                binary_search_cursor(arr, value, cursor, stats)
            } else {
                match index {
                    Some(idx) => index_search(idx, value, cursor, stats),
                    None => sequential_search(arr, value, cursor, stats),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> Vec<Id> {
        vec![5, 7, 13, 18, 24, 29, 33, 45]
    }

    #[test]
    fn sequential_forward_and_backward() {
        let a = arr();
        let mut stats = SearchStats::new();
        let mut cursor = 0;
        assert_eq!(sequential_search(&a, 18, &mut cursor, &mut stats), Some(3));
        assert_eq!(cursor, 3);
        // Backward from cursor.
        assert_eq!(sequential_search(&a, 7, &mut cursor, &mut stats), Some(1));
        assert_eq!(cursor, 1);
        // Miss in the middle: cursor rests near the gap.
        assert_eq!(sequential_search(&a, 20, &mut cursor, &mut stats), None);
        assert!(cursor == 4 || cursor == 3, "cursor {cursor}");
        // Miss past the end.
        assert_eq!(sequential_search(&a, 99, &mut cursor, &mut stats), None);
        assert_eq!(cursor, a.len() - 1);
        // Miss before the start.
        assert_eq!(sequential_search(&a, 1, &mut cursor, &mut stats), None);
        assert_eq!(cursor, 0);
        assert_eq!(stats.sequential_searches, 5);
        assert!(stats.sequential_steps >= 5);
    }

    #[test]
    fn binary_matches_std() {
        let a = arr();
        let mut stats = SearchStats::new();
        for probe in 0..50u32 {
            let mut cursor = 3;
            assert_eq!(
                binary_search_cursor(&a, probe, &mut cursor, &mut stats),
                a.binary_search(&probe).ok(),
                "probe {probe}"
            );
            assert!(cursor < a.len());
        }
        assert_eq!(stats.binary_searches, 50);
    }

    #[test]
    fn empty_array() {
        let a: Vec<Id> = vec![];
        let mut stats = SearchStats::new();
        let mut cursor = 0;
        assert_eq!(sequential_search(&a, 5, &mut cursor, &mut stats), None);
        assert_eq!(binary_search_cursor(&a, 5, &mut cursor, &mut stats), None);
        for strat in ProbeStrategy::TABLE5 {
            assert_eq!(
                adaptive_search(&a, 5, &mut cursor, 100, strat, None, &mut stats),
                None
            );
        }
    }

    #[test]
    fn adaptive_decision_follows_threshold() {
        let a: Vec<Id> = (0..1000).map(|i| i * 10).collect();
        let idx = IdPosIndex::build(&a, 64);

        // Close probe (distance 10 <= threshold 50): sequential.
        let mut stats = SearchStats::new();
        let mut cursor = 100; // arr[100] = 1000
        let r = adaptive_search(
            &a,
            1010,
            &mut cursor,
            50,
            ProbeStrategy::AdaptiveBinary,
            Some(&idx),
            &mut stats,
        );
        assert_eq!(r, Some(101));
        assert_eq!(stats.sequential_searches, 1);
        assert_eq!(stats.binary_searches, 0);

        // Far probe: binary.
        let mut stats = SearchStats::new();
        let mut cursor = 100;
        let r = adaptive_search(
            &a,
            9990,
            &mut cursor,
            50,
            ProbeStrategy::AdaptiveBinary,
            Some(&idx),
            &mut stats,
        );
        assert_eq!(r, Some(999));
        assert_eq!(stats.binary_searches, 1);
        assert_eq!(stats.sequential_searches, 0);

        // Far probe with AdaptiveIndex: index lookup.
        let mut stats = SearchStats::new();
        let mut cursor = 100;
        let r = adaptive_search(
            &a,
            9990,
            &mut cursor,
            50,
            ProbeStrategy::AdaptiveIndex,
            Some(&idx),
            &mut stats,
        );
        assert_eq!(r, Some(999));
        assert_eq!(stats.index_lookups, 1);
        assert_eq!(cursor, 999, "index lookup must update the cursor");
    }

    #[test]
    fn all_strategies_agree_with_oracle() {
        let a: Vec<Id> = vec![2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377];
        let idx = IdPosIndex::build(&a, 64);
        let strategies = [
            ProbeStrategy::AlwaysBinary,
            ProbeStrategy::AdaptiveBinary,
            ProbeStrategy::AlwaysIndex,
            ProbeStrategy::AdaptiveIndex,
            ProbeStrategy::AlwaysSequential,
        ];
        for strat in strategies {
            let mut stats = SearchStats::new();
            let mut cursor = 0;
            for probe in 0..400u32 {
                assert_eq!(
                    adaptive_search(&a, probe, &mut cursor, 7, strat, Some(&idx), &mut stats),
                    a.binary_search(&probe).ok(),
                    "{strat} probe {probe} cursor {cursor}"
                );
            }
        }
    }

    /// Plain linear-scan oracle for the cursor's resting position:
    /// exactly what `sequential_search` did before galloping.
    fn linear_oracle(arr: &[Id], value: Id, cursor: usize) -> (Option<usize>, usize) {
        let mut i = cursor.min(arr.len() - 1);
        if arr[i] < value {
            while arr[i] < value {
                if i + 1 == arr.len() {
                    return (None, i);
                }
                i += 1;
            }
        } else {
            while arr[i] > value {
                if i == 0 {
                    return (None, 0);
                }
                i -= 1;
            }
        }
        ((arr[i] == value).then_some(i), i)
    }

    #[test]
    fn galloping_matches_linear_scan() {
        // Long gaps force the gallop path (distance >> GALLOP_AFTER);
        // result AND cursor rest must match the plain scan exactly.
        let a: Vec<Id> = (0..2000).map(|i| i * 3 + (i % 3)).collect();
        for start in [0usize, 1, 500, 1337, 1999] {
            for probe in (0..6100u32).step_by(13) {
                let (want, want_cursor) = linear_oracle(&a, probe, start);
                let mut stats = SearchStats::new();
                let mut cursor = start;
                let got = sequential_search(&a, probe, &mut cursor, &mut stats);
                assert_eq!(got, want, "probe {probe} from {start}");
                assert_eq!(cursor, want_cursor, "probe {probe} from {start}");
            }
        }
    }

    #[test]
    fn gallop_never_overshoots_boundaries() {
        // Exhaustive cursor-parity pinning at the shapes where an
        // unclamped gallop would overshoot: run ends, length-1 runs,
        // and probes past the last key. Result AND resting cursor must
        // match the plain linear scan for every (start, probe) pair.
        let shapes: Vec<Vec<Id>> = vec![
            vec![7],                                   // length-1 run
            vec![3, 9],                                // length-2
            (0..40).map(|i| i * 100).collect(),        // wide gaps
            (0..17).map(|i| i * i).collect(),          // uneven gaps
            vec![0, 1, 2, 3, 1_000_000, u32::MAX - 1], // extreme tail
        ];
        for a in &shapes {
            let max = *a.last().unwrap();
            let probes: Vec<Id> = a
                .iter()
                .flat_map(|&v| [v.saturating_sub(1), v, v.saturating_add(1)])
                .chain([0, max, max.saturating_add(1), u32::MAX])
                .collect();
            // Starts include positions past the end of the array —
            // stale cursors from a longer previous run must clamp.
            for start in (0..a.len() + 3).chain([usize::MAX]) {
                for &probe in &probes {
                    let (want, want_cursor) = linear_oracle(a, probe, start.min(a.len() - 1));
                    let mut stats = SearchStats::new();
                    let mut cursor = start;
                    let got = sequential_search(a, probe, &mut cursor, &mut stats);
                    assert_eq!(got, want, "len {} probe {probe} from {start}", a.len());
                    assert_eq!(
                        cursor,
                        want_cursor,
                        "cursor parity: len {} probe {probe} from {start}",
                        a.len()
                    );
                }
            }
        }
    }

    #[test]
    fn galloping_is_logarithmic_in_gap() {
        let a: Vec<Id> = (0..1_000_000).collect();
        let mut stats = SearchStats::new();
        let mut cursor = 0;
        assert_eq!(
            sequential_search(&a, 999_999, &mut cursor, &mut stats),
            Some(999_999)
        );
        assert_eq!(cursor, 999_999);
        // A plain scan would take ~1M steps; galloping takes
        // GALLOP_AFTER + O(log gap).
        assert!(
            stats.sequential_steps < 64,
            "steps {}",
            stats.sequential_steps
        );
        // Backward across the whole array.
        let mut stats = SearchStats::new();
        assert_eq!(sequential_search(&a, 0, &mut cursor, &mut stats), Some(0));
        assert_eq!(cursor, 0);
        assert!(
            stats.sequential_steps < 64,
            "steps {}",
            stats.sequential_steps
        );
    }

    #[test]
    fn index_strategies_fall_back_without_index() {
        let a = arr();
        let mut stats = SearchStats::new();
        let mut cursor = 0;
        let r = adaptive_search(
            &a,
            45,
            &mut cursor,
            0,
            ProbeStrategy::AlwaysIndex,
            None,
            &mut stats,
        );
        assert_eq!(r, Some(7));
        assert_eq!(stats.binary_searches, 1);
        assert_eq!(stats.index_lookups, 0);
        // The adaptive arm gallops instead, however far the probe.
        let mut stats = SearchStats::new();
        let mut cursor = 0;
        let r = adaptive_search(
            &a,
            45,
            &mut cursor,
            0,
            ProbeStrategy::AdaptiveIndex,
            None,
            &mut stats,
        );
        assert_eq!(r, Some(7));
        assert_eq!(cursor, 7);
        assert_eq!(stats.sequential_searches, 1);
        assert_eq!(stats.binary_searches + stats.index_lookups, 0);
    }

    #[test]
    fn default_is_adaptive_index() {
        assert_eq!(ProbeStrategy::default(), ProbeStrategy::AdaptiveIndex);
    }

    #[test]
    fn labels() {
        assert_eq!(ProbeStrategy::AdaptiveBinary.label(), "AdBinary");
        assert_eq!(
            ProbeStrategy::TABLE5.map(|s| s.label()),
            ["Binary", "AdBinary", "Index", "AdIndex"]
        );
    }
}
