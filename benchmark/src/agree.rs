//! `agree A.json B.json`: do two result sets (each written by
//! `all --repeat k --out …`) tell the same story, within the bounds
//! `BENCHMARK.json` fixes?
//!
//! Per workload and end-to-end metric: the medians of the two sets may
//! differ by at most the metric's bound, and a metric whose run-to-run
//! spread (inter-quartile distance over median, within either set) exceeds
//! its bound is *unresolved* — the sets cannot be said to agree or differ on
//! it. Exact counts declared seed-independent must be equal to the digit.
//! Any unresolved metric or disagreement makes the command exit non-zero.

use crate::json::Json;
use crate::spec::{self, e2e, Better, MetricDecl};
use crate::stats::{iqr_spread, median};

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better than A's by more than the bound.
    Better,
    /// Spread within a set exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Better => "BETTER",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Signed change from A to B as a share of A's median, positive when B is
/// worse in the metric's own direction.
pub fn worsening(decl: &MetricDecl, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs();
    match decl.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Compare one metric. `setup_s` is exempt from the spread rule, as in the
/// driver's own acceptance check: a few set-ups per run cannot be made as
/// steady as thousands of operations, which is why it carries the widest
/// bound instead.
pub fn judge(decl: &MetricDecl, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let bound = decl.bound.unwrap_or(0.0);
    let spread = |v: &[f64]| if v.len() >= 2 { iqr_spread(v) } else { 0.0 };
    let widest = spread(a).max(spread(b));
    let delta = worsening(decl, a, b);
    let verdict = if decl.name != e2e::SETUP_S && widest > bound {
        Verdict::Unresolved
    } else if delta > bound {
        Verdict::Worse
    } else if -delta > bound {
        Verdict::Better
    } else {
        Verdict::Agree
    };
    (verdict, delta, widest)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("jigsaw-benchmark/1") => Ok(doc),
        other => Err(format!("{path}: schema is {other:?}, expected \"jigsaw-benchmark/1\"")),
    }
}

fn series(doc: &Json, workload: &str, section: &str, name: &str) -> Option<Vec<f64>> {
    let values = doc.get("workloads")?.get(workload)?.get(section)?.get(name)?;
    Some(values.as_arr()?.iter().filter_map(Json::as_f64).collect())
}

pub fn main(paths: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = paths else {
        return Err("agree takes exactly two result files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = spec::spec();
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "cell: change of B's median against A's, positive = worse; (spread) = widest IQR/median\n"
    );
    let mut all_agree = true;
    for workload in spec::WORKLOADS {
        let mut cells = Vec::new();
        for decl in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                series(&a, workload, "end_to_end", &decl.name).filter(|v| !v.is_empty()),
                series(&b, workload, "end_to_end", &decl.name).filter(|v| !v.is_empty()),
            ) else {
                cells.push(format!("{}: MISSING", decl.name));
                all_agree = false;
                continue;
            };
            let (verdict, delta, spread) = judge(decl, &va, &vb);
            all_agree &= verdict == Verdict::Agree;
            cells.push(format!(
                "{} {:+.1}% ({:.1}%) ≤{:.0}% {}",
                decl.name,
                delta * 100.0,
                spread * 100.0,
                decl.bound.unwrap_or(0.0) * 100.0,
                verdict.label()
            ));
        }
        // Exact counts: equal to the digit where declared seed-independent.
        let counts = |doc: &Json| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("counts"))
                .cloned()
        };
        let mut unequal = Vec::new();
        if let (Some(ca), Some(cb)) = (counts(&a), counts(&b)) {
            for (name, entry) in ca.fields() {
                if entry.get("seed_independent").and_then(Json::as_bool) != Some(true) {
                    continue;
                }
                // One value per set (each set has already checked that its
                // own runs, of different seeds, all read the same).
                let value = |e: &Json| {
                    let holds = e.get("holds").and_then(Json::as_bool) == Some(true);
                    e.get("values")
                        .and_then(Json::as_arr)
                        .and_then(|v| v.first().cloned())
                        .filter(|_| holds)
                };
                if value(entry).is_none() || cb.get(name).and_then(value) != value(entry) {
                    unequal.push(name.clone());
                }
            }
        }
        if unequal.is_empty() {
            cells.push("counts equal".into());
        } else {
            all_agree = false;
            cells.push(format!("counts DIFFER: {}", unequal.join(", ")));
        }
        println!("{workload:<16} | {}", cells.join(" | "));
    }
    println!("\n{}", if all_agree { "the two sets agree" } else { "the two sets DO NOT agree" });
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str, better: Better, bound: f64) -> MetricDecl {
        MetricDecl { name: name.into(), unit: "us".into(), better, bound: Some(bound) }
    }

    #[test]
    fn steady_sets_within_the_bound_agree() {
        let d = decl("op_latency_us", Better::Lower, 0.10);
        let a = [100.0, 101.0, 99.0, 100.5, 100.0];
        let b = [104.0, 105.0, 103.0, 104.5, 104.0];
        let (v, delta, _) = judge(&d, &a, &b);
        assert_eq!(v, Verdict::Agree);
        assert!((delta - 0.04).abs() < 1e-12);
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let lower = decl("op_latency_us", Better::Lower, 0.10);
        let higher = decl("ops_per_s", Better::Higher, 0.10);
        let (a, b) = ([100.0; 3], [120.0; 3]);
        assert_eq!(judge(&lower, &a, &b).0, Verdict::Worse);
        assert_eq!(judge(&higher, &a, &b).0, Verdict::Better);
        assert_eq!(judge(&lower, &b, &a).0, Verdict::Better);
        assert_eq!(judge(&higher, &b, &a).0, Verdict::Worse);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_except_for_setup() {
        let noisy = [100.0, 140.0, 80.0, 130.0, 70.0];
        let d = decl("op_latency_us", Better::Lower, 0.10);
        assert_eq!(judge(&d, &noisy, &noisy).0, Verdict::Unresolved);
        let setup = decl(e2e::SETUP_S, Better::Lower, 0.25);
        assert_eq!(judge(&setup, &noisy, &noisy).0, Verdict::Agree);
    }

    #[test]
    fn single_runs_have_no_spread_and_compare_by_value() {
        let d = decl("ops_per_s", Better::Higher, 0.10);
        assert_eq!(judge(&d, &[1000.0], &[950.0]).0, Verdict::Agree);
        assert_eq!(judge(&d, &[1000.0], &[800.0]).0, Verdict::Worse);
    }
}
