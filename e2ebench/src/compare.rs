//! `e2e compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both medians and quartiles, the ratio with its base, and a verdict
//! against the bound the benchmark fixed for that metric.

use std::path::Path;

use adshare::obs::json::{parse, Json};

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// A's own interquartile spread exceeds the bound: no call is made.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median over rounds.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Judge B against A: worse, better or the same by more than `bound` (a
/// share of A's median), or unresolved when A's own quartiles are further
/// apart than that.
pub fn judge(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    if a.median == 0.0 {
        // Only a metric that may be 0 gets here (`failed_share`): any rise
        // is a regression, equality is "same".
        return if b.median > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Same
        };
    }
    let delta = (b.median - a.median) / a.median.abs();
    let worse_by = if lower_is_better { delta } else { -delta };
    let spread = (a.q3 - a.q1).abs() / a.median.abs();
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn num(v: Option<&Json>) -> Result<f64, String> {
    match v {
        Some(Json::Num(n)) => Ok(*n),
        other => Err(format!("expected a number, found {other:?}")),
    }
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(|w| w.as_array())
        .ok_or_else(|| "report has no \"workloads\" array".to_string())
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two reports written by `e2e run`. Errors (exit code 1) when any
/// row is worse or `failed_share` rose.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<(), String> {
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    println!("A = {} (base of every ratio)", a_path.display());
    println!("B = {}", b_path.display());
    println!(
        "{:<17} {:<24} {:>12} {:>21} {:>12} {:>21} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "bound"
    );
    let mut worse = Vec::new();
    for a_w in workloads(&a_doc)? {
        let name = a_w.get("workload").and_then(|n| n.as_str()).unwrap_or("?");
        let Some(b_w) = workloads(&b_doc)?
            .iter()
            .find(|w| w.get("workload").and_then(|n| n.as_str()) == Some(name))
        else {
            return Err(format!(
                "workload {name} is missing from {}",
                b_path.display()
            ));
        };
        let metrics = a_w
            .get("end_to_end")
            .and_then(|m| m.as_object())
            .ok_or_else(|| format!("{name}: no end_to_end object"))?;
        // Report order is the order of the metric table, which a BTreeMap
        // loses; rows are sorted by name instead.
        for (metric, a_m) in metrics {
            let b_m = b_w
                .get("end_to_end")
                .and_then(|m| m.get(metric))
                .ok_or_else(|| format!("{name}.{metric} is missing from B"))?;
            let side = |m: &Json| -> Result<Side, String> {
                Ok(Side {
                    median: num(m.get("median"))?,
                    q1: num(m.get("q1"))?,
                    q3: num(m.get("q3"))?,
                })
            };
            let (a, b) = (side(a_m)?, side(b_m)?);
            let bound = num(a_m.get("bound"))?;
            let lower = a_m.get("better").and_then(|s| s.as_str()) != Some("higher");
            let verdict = judge(a, b, lower, bound);
            println!(
                "{name:<17} {metric:<24} {:>12.4} [{:>9.4},{:>9.4}] {:>12.4} [{:>9.4},{:>9.4}] {:>8.4} {:>5.0}%  {}",
                a.median,
                a.q1,
                a.q3,
                b.median,
                b.q1,
                b.q3,
                b.median / a.median,
                bound * 100.0,
                verdict.label()
            );
            if verdict == Verdict::Worse {
                worse.push(format!("{name}.{metric}"));
            }
        }
        let gated = a_w
            .get("gated")
            .and_then(|g| g.as_object())
            .ok_or_else(|| format!("{name}: no gated object"))?;
        for (metric, a_g) in gated {
            let a_v = num(a_g.get("value"))?;
            let b_v = num(b_w
                .get("gated")
                .and_then(|g| g.get(metric))
                .and_then(|g| g.get("value")))?;
            let bound = num(a_g.get("bound"))?;
            let point = |v| Side {
                median: v,
                q1: v,
                q3: v,
            };
            let verdict = judge(point(a_v), point(b_v), true, bound);
            let equal = if a_v == b_v { " (bit-equal)" } else { "" };
            println!(
                "{name:<17} {metric:<24} {a_v:>12.4} {:>21} {b_v:>12.4} {:>21} {:>8.4} {:>5.0}%  {}{equal}",
                "(virtual clock)",
                "(virtual clock)",
                if a_v == 0.0 { 1.0 } else { b_v / a_v },
                bound * 100.0,
                verdict.label()
            );
            if verdict == Verdict::Worse {
                worse.push(format!("{name}.{metric}"));
            }
        }
    }
    if worse.is_empty() {
        println!("no regression: no row is worse by more than its bound");
        Ok(())
    } else {
        Err(format!("regression in {}", worse.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, q1: f64, q3: f64) -> Side {
        Side { median, q1, q3 }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_base_spread() {
        let a = side(100.0, 99.0, 101.0);
        // Lower is better, bound 5 %.
        assert_eq!(judge(a, side(104.0, 0.0, 0.0), true, 0.05), Verdict::Same);
        assert_eq!(judge(a, side(106.0, 0.0, 0.0), true, 0.05), Verdict::Worse);
        assert_eq!(judge(a, side(90.0, 0.0, 0.0), true, 0.05), Verdict::Better);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(
            judge(a, side(106.0, 0.0, 0.0), false, 0.05),
            Verdict::Better
        );
        assert_eq!(judge(a, side(90.0, 0.0, 0.0), false, 0.05), Verdict::Worse);
        // A's own spread (10 %) is wider than the bound: no call.
        let noisy = side(100.0, 95.0, 105.0);
        assert_eq!(
            judge(noisy, side(120.0, 0.0, 0.0), true, 0.05),
            Verdict::Unresolved
        );
        // failed_share: zero base, any rise is worse.
        let zero = side(0.0, 0.0, 0.0);
        assert_eq!(judge(zero, zero, true, 0.0), Verdict::Same);
        assert_eq!(
            judge(zero, side(0.001, 0.0, 0.0), true, 0.0),
            Verdict::Worse
        );
    }
}
