//! `sstd-benchmark compare <setA> <setB>`: two sets of runs of the same
//! benchmark, metric by metric and workload by workload, against the
//! bounds `BENCHMARK.json` fixes.
//!
//! A set is a file of result lines as `run --out <file>` appends them.

use crate::json::Json;
use crate::metrics::{median, quartiles, Better, END_TO_END};
use std::collections::BTreeMap;

/// `values[(workload, metric)]`, one value per run.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn read_set(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let run = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let metrics = run.get("metrics").and_then(Json::as_object);
        for (name, metric) in metrics.into_iter().flatten() {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone())).or_default().push(value);
            }
        }
        for count in ["attempted", "failed"] {
            if let Some(value) = run.get(count).and_then(Json::as_f64) {
                set.entry((workload.to_string(), count.to_string())).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// `bounds[metric]` for the end-to-end metrics, as `BENCHMARK.json` fixes them.
fn read_bounds(spec: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{spec}: {e}"))?;
    let mut bounds = BTreeMap::new();
    for metric in json.get("end_to_end").map(Json::as_array).unwrap_or_default() {
        let name = metric.get("name").and_then(Json::as_str);
        let bound = metric.get("bound").and_then(Json::as_f64);
        match (name, bound) {
            (Some(name), Some(bound)) => bounds.insert(name.to_string(), bound),
            _ => return Err(format!("{spec}: an end-to-end metric lacks its name or bound")),
        };
    }
    Ok(bounds)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The spread of either set exceeds the bound, and B's runs do not
    /// all read better than A's.
    Unresolved,
}

/// One row: quartiles of both sets and what they say under `bound`.
fn judge(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> (Verdict, f64, f64) {
    let (med_a, med_b) = (median(a), median(b));
    let worse_by = if higher_is_better { med_a - med_b } else { med_b - med_a } / med_a.abs();
    let iqr = |v: &[f64]| if v.len() < 2 { 0.0 } else { quartiles(v)[2] - quartiles(v)[0] };
    let spread = iqr(a).max(iqr(b)) / med_a.abs();
    let all_better =
        a.iter().all(|&x| b.iter().all(|&y| if higher_is_better { y > x } else { y < x }));
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, worse_by, spread)
}

fn quartile_text(values: &[f64]) -> String {
    if values.len() < 2 {
        return format!("{:.6}", median(values));
    }
    let [q1, q2, q3] = quartiles(values);
    format!("{q2:.6} [{q1:.6}, {q3:.6}]")
}

/// Prints the comparison; the exit code is 0 when every bounded metric
/// holds, 1 when one regressed or an event failed, 2 when none regressed
/// but one is unresolved.
pub fn compare(path_a: &str, path_b: &str, spec: &str) -> Result<i32, String> {
    let (a, b, bounds) = (read_set(path_a)?, read_set(path_b)?, read_bounds(spec)?);
    let (mut regressions, mut unresolved) = (0, 0);
    println!(
        "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tworse by\tspread\tbound\tverdict"
    );
    for ((workload, metric), values_a) in &a {
        let Some(values_b) = b.get(&(workload.clone(), metric.clone())) else { continue };
        let (qa, qb) = (quartile_text(values_a), quartile_text(values_b));
        if metric == "failed" {
            let lost = values_a.iter().chain(values_b).any(|&f| f > 0.0);
            regressions += i32::from(lost);
            println!(
                "{workload}\t{metric}\t{qa}\t{qb}\t-\t-\t0\t{}",
                if lost { "REGRESSION" } else { "ok" }
            );
        } else if let (Some(&bound), Some(def)) =
            (bounds.get(metric), END_TO_END.iter().find(|d| d.name == metric))
        {
            let higher = def.better == Better::Higher;
            let (mut verdict, worse_by, spread) = judge(values_a, values_b, bound, higher);
            // Set-up takes a fraction of a millisecond on some workloads;
            // only its median is held to the bound, not its spread.
            if metric == "setup_s" && verdict == Verdict::Unresolved {
                verdict = if worse_by > bound { Verdict::Regression } else { Verdict::Ok };
            }
            regressions += i32::from(verdict == Verdict::Regression);
            unresolved += i32::from(verdict == Verdict::Unresolved);
            let verdict = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{workload}\t{metric}\t{qa}\t{qb}\t{worse_by:+.4}\t{spread:.4}\t{bound}\t{verdict}"
            );
        } else {
            println!("{workload}\t{metric}\t{qa}\t{qb}\t-\t-\t-\t-");
        }
    }
    println!("{regressions} regression(s), {unresolved} unresolved");
    Ok(if regressions > 0 {
        1
    } else if unresolved > 0 {
        2
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let close = [99.0, 100.0, 98.5, 99.5, 100.5];
        let slow = [80.0, 81.0, 79.0, 80.5, 79.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        let fast = [120.0, 121.0, 119.0, 150.0, 118.0];
        assert_eq!(judge(&a, &close, 0.05, true).0, Verdict::Ok);
        assert_eq!(judge(&a, &slow, 0.05, true).0, Verdict::Regression);
        assert_eq!(judge(&a, &slow, 0.05, false).0, Verdict::Ok, "lower is better: 80 beats 100");
        assert_eq!(judge(&a, &noisy, 0.05, true).0, Verdict::Unresolved);
        assert_eq!(judge(&a, &fast, 0.05, true).0, Verdict::Ok, "wide, but every run is better");
        let (_, worse_by, _) = judge(&a, &slow, 0.05, true);
        assert!((worse_by - 0.2).abs() < 1e-9);
    }
}
