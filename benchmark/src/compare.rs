//! `parj-bench compare` and `parj-bench repeat`: the regression gate.
//!
//! A result set is a directory of `*.trace0.json` records (any depth).
//! For every (workload, end-to-end metric) pair the medians of two sets
//! are compared against the bound `BENCHMARK.json` fixes; a pair whose
//! run-to-run spread is wider than its bound is *unresolved*, never
//! "unchanged".

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::json::{self, Value};
use crate::timing;

/// Direction and bound of one end-to-end metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn load_specs(path: &Path) -> Result<Vec<Spec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry without {k}"))
            };
            Ok(Spec {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: match field("better")?.as_str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("better must be higher or lower, not {other:?}")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Values of one workload across the runs of a set.
#[derive(Debug, Default, Clone)]
pub struct Runs {
    pub metrics: BTreeMap<String, Vec<f64>>,
    pub failed_ratio: Vec<f64>,
}

pub type ResultSet = BTreeMap<String, Runs>;

fn collect(dir: &Path, set: &mut ResultSet) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect(&path, set)?;
        } else if path.to_string_lossy().ends_with(".trace0.json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let rec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let workload = rec
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("record without workload")?;
            let runs = set.entry(workload.to_string()).or_default();
            for (name, m) in rec
                .get("metrics")
                .and_then(Value::as_obj)
                .unwrap_or_default()
            {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    runs.metrics.entry(name.clone()).or_default().push(v);
                }
            }
            let count = |k: &str| rec.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            runs.failed_ratio
                .push(count("failed") / count("attempted").max(1.0));
        }
    }
    Ok(())
}

pub fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    collect(dir, &mut set)?;
    if set.is_empty() {
        return Err(format!("{}: no *.trace0.json records", dir.display()));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Spread wider than the bound: the runs cannot tell.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Run-to-run spread as a share of the median: the interquartile range
/// from four runs up, the full range for two or three, unknown (0) for
/// a single run.
fn spread(values: &[f64]) -> f64 {
    let m = timing::median(values).abs();
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    if values.len() >= 4 {
        return timing::iqr_share(values).unwrap_or(0.0);
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / m
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn judge(spec: &Spec, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (timing::median(a), timing::median(b));
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = if spec.higher_is_better {
        -change
    } else {
        change
    };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > spec.bound {
        Verdict::Unresolved
    } else if worse_by > spec.bound {
        Verdict::Regressed
    } else if worse_by < -spec.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, spread, verdict)
}

/// One row per (workload, end-to-end metric), plus a `failed_ops_ratio`
/// row per workload (bound 0: any rise is a regression).
pub fn compare(a: &ResultSet, b: &ResultSet, specs: &[Spec]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, ra) in a {
        let Some(rb) = b.get(workload) else { continue };
        for spec in specs {
            let (Some(va), Some(vb)) = (ra.metrics.get(&spec.name), rb.metrics.get(&spec.name))
            else {
                continue;
            };
            let (worse_by, spread, verdict) = judge(spec, va, vb);
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name.clone(),
                a: timing::median(va),
                b: timing::median(vb),
                worse_by,
                spread,
                bound: spec.bound,
                verdict,
            });
        }
        let (fa, fb) = (
            timing::median(&ra.failed_ratio),
            timing::median(&rb.failed_ratio),
        );
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_ops_ratio".to_string(),
            a: fa,
            b: fb,
            worse_by: fb - fa,
            spread: 0.0,
            bound: 0.0,
            verdict: if fb > fa {
                Verdict::Regressed
            } else if fb < fa {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            },
        });
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<26} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:<26} {:>14.5} {:>14.5} {:>8.2}% {:>7.2}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict
        ));
    }
    out
}

/// True when the gate fails: a regression, or failed ops rising.
pub fn any_regression(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool) -> Spec {
        Spec {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.05,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |x: f64| vec![x, x * 1.001, x * 0.999, x, x * 1.002];
        assert_eq!(
            judge(&spec(false), &steady(100.0), &steady(101.0)).2,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&spec(false), &steady(100.0), &steady(110.0)).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&spec(false), &steady(100.0), &steady(90.0)).2,
            Verdict::Improved
        );
        assert_eq!(
            judge(&spec(true), &steady(100.0), &steady(90.0)).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&spec(true), &steady(100.0), &steady(110.0)).2,
            Verdict::Improved
        );
        // A wide spread hides even a large shift.
        let noisy = vec![80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&spec(false), &noisy, &steady(130.0)).2,
            Verdict::Unresolved
        );
        // A single run per side has no visible spread; the bound decides.
        assert_eq!(
            judge(&spec(false), &[100.0], &[104.0]).2,
            Verdict::Unchanged
        );
    }

    #[test]
    fn any_rise_in_failed_ops_regresses() {
        let set = |failed: f64| {
            let mut runs = Runs::default();
            runs.metrics.insert("m".into(), vec![1.0]);
            runs.failed_ratio.push(failed);
            ResultSet::from([("w".to_string(), runs)])
        };
        let rows = compare(&set(0.0), &set(0.001), &[spec(false)]);
        assert!(any_regression(&rows));
        assert!(!any_regression(&compare(
            &set(0.0),
            &set(0.0),
            &[spec(false)]
        )));
        assert!(render(&rows).contains("failed_ops_ratio"));
    }
}
