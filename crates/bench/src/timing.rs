//! Timing utilities: repeated measurement with an average, plus
//! the aggregate statistics the paper reports (average and geometric
//! mean per workload group).

use std::time::Instant;

/// Runs `f` `runs` times (after one untimed warm-up) and returns the
/// average wall-clock milliseconds (the paper's reported metric: "Each
/// query was executed 10 times and the average execution time is
/// shown").
pub fn measure_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let runs = runs.max(1);
    f(); // warm-up: dictionary/page caches, branch predictors
    let t = Instant::now();
    for _ in 0..runs {
        f();
    }
    t.elapsed().as_secs_f64() * 1e3 / runs as f64
}

/// Arithmetic mean.
pub fn avg(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean (zeros are clamped to 1 µs, as sub-resolution times
/// would otherwise zero the whole product — the paper reports geomeans
/// over times measured in whole milliseconds).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-3).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_runs() {
        let mut calls = 0;
        let ms = measure_ms(5, || calls += 1);
        assert_eq!(calls, 6); // warm-up + 5
        assert!(ms >= 0.0);
    }

    #[test]
    fn aggregates() {
        assert_eq!(avg(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(avg(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
        // Zero-clamping keeps the geomean positive.
        assert!(geomean(&[0.0, 10.0]) > 0.0);
    }
}
