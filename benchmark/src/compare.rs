//! Verdicts on two sets of runs (a parent and a change, run alternately),
//! per workload and end-to-end metric, by the bounds in `BENCHMARK.json`.
//!
//! A change **improved** a metric when it wins at least nine in ten of at
//! least ten pairs (ties count for neither side) and the medians differ by
//! more than the parent's own interquartile range. It **regressed** when
//! its median is worse than the parent's by more than the bound. A metric
//! whose parent spread is wider than the bound is **unresolved** unless
//! every change run beats every parent run; otherwise it is **unchanged**.
//! Per workload, a change that failed a larger share of its attempted
//! operations than the parent **regressed**, and sets of runs that measured
//! for different lengths are refused.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Content;

use crate::json::{as_f64, get};
use crate::stats;

/// Pairs needed before a gain may be claimed.
pub const MIN_PAIRS: usize = 10;
/// Share of pairs a change must win to claim a gain.
pub const WIN_SHARE: f64 = 0.9;

/// One end-to-end metric's regression bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening of the median, as a share of the parent's median.
    pub bound: f64,
}

/// The `end_to_end` bounds of a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// A malformed `end_to_end` list.
pub fn bounds(benchmark: &Content) -> Result<Vec<Bound>, String> {
    let list = get(benchmark, "end_to_end")
        .and_then(Content::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = get(m, "name").and_then(Content::as_str).ok_or("metric without name")?;
            let better =
                get(m, "better").and_then(Content::as_str).ok_or("metric without better")?;
            let bound = get(m, "bound").and_then(as_f64).ok_or("metric without bound")?;
            Ok(Bound { name: name.to_string(), higher_is_better: better == "higher", bound })
        })
        .collect()
}

/// What one side's untraced result files hold.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Runs {
    /// Metric values per (workload, metric), in file order.
    pub metrics: BTreeMap<(String, String), Vec<f64>>,
    /// Failed and attempted operations per workload, summed over its runs.
    pub failures: BTreeMap<String, (f64, f64)>,
    /// Every run length (`seconds`) the files record.
    pub seconds: Vec<f64>,
}

/// Reads untraced result files (objects, or arrays of objects as `--out`
/// writes for several workloads).
#[must_use]
pub fn collect(docs: &[Content]) -> Runs {
    let mut out = Runs::default();
    let mut add = |doc: &Content| {
        if matches!(get(doc, "trace"), Some(Content::Bool(true))) {
            return;
        }
        let Some(workload) = get(doc, "workload").and_then(Content::as_str) else { return };
        let Some(metrics) = get(doc, "metrics").and_then(Content::as_map) else { return };
        for (name, m) in metrics {
            if let Some(v) = get(m, "value").and_then(as_f64) {
                out.metrics.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
        }
        let count = |key| get(doc, key).and_then(as_f64).unwrap_or(0.0);
        let tally = out.failures.entry(workload.to_string()).or_default();
        tally.0 += count("failed");
        tally.1 += count("attempted");
        if let Some(s) = get(doc, "seconds").and_then(as_f64) {
            out.seconds.push(s);
        }
    };
    for doc in docs {
        match doc {
            Content::Seq(items) => items.iter().for_each(&mut add),
            other => add(other),
        }
    }
    out
}

/// The call on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the pairs rule.
    Improved,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// Within the bound, with a parent spread inside the bound.
    Unchanged,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Improved => "improved",
            Self::Regressed => "regressed",
            Self::Unchanged => "unchanged",
            Self::Unresolved => "unresolved",
        }
    }
}

/// The comparison of one metric on one workload.
#[derive(Clone, Debug)]
pub struct Judgement {
    /// Runs paired in order (the shorter side's count).
    pub pairs: usize,
    /// Share of pairs the change won.
    pub win_share: f64,
    /// Change median's worsening relative to the parent median (negative
    /// when better).
    pub worse_by: f64,
    /// The call.
    pub verdict: Verdict,
}

/// Judges `change` runs against `base` runs, paired in order.
///
/// # Panics
///
/// Panics when either side is empty.
#[must_use]
pub fn judge(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Judgement {
    let better = |c: f64, b: f64| if higher_is_better { c > b } else { c < b };
    let pairs = base.len().min(change.len());
    let wins = base.iter().zip(change).filter(|(b, c)| better(**c, **b)).count();
    let win_share = if pairs == 0 { 0.0 } else { wins as f64 / pairs as f64 };
    let (b_q1, b_med, b_q3) = stats::quartiles(base);
    let c_med = stats::median(change);
    let worse_by = if b_med == 0.0 {
        0.0
    } else if higher_is_better {
        (b_med - c_med) / b_med.abs()
    } else {
        (c_med - b_med) / b_med.abs()
    };
    let spread = stats::relative_spread(base);
    let all_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    let verdict = if pairs >= MIN_PAIRS
        && win_share >= WIN_SHARE
        && better(c_med, b_med)
        && (c_med - b_med).abs() > b_q3 - b_q1
    {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Judgement { pairs, win_share, worse_by, verdict }
}

/// Whether `change` failed a larger share of its attempted operations than
/// `base`; each is `(failed, attempted)`.
#[must_use]
pub fn fails_more(base: (f64, f64), change: (f64, f64)) -> bool {
    let share = |(failed, attempted): (f64, f64)| failed / attempted.max(1.0);
    share(change) > share(base)
}

/// A rendered comparison table plus whether anything regressed.
///
/// # Errors
///
/// Runs that measured for different lengths, which cannot be compared.
pub fn report(bounds: &[Bound], base: &Runs, change: &Runs) -> Result<(String, bool), String> {
    let mut lengths: Vec<f64> = base.seconds.iter().chain(&change.seconds).copied().collect();
    lengths.sort_by(f64::total_cmp);
    lengths.dedup();
    if lengths.len() > 1 {
        return Err(format!("the runs measured for different lengths (seconds {lengths:?})"));
    }
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<16} {:<16} {:>30} {:>30} {:>6} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "worse"
    );
    for ((workload, metric), b) in &base.metrics {
        let Some(bound) = bounds.iter().find(|x| &x.name == metric) else { continue };
        let Some(c) = change.metrics.get(&(workload.clone(), metric.clone())) else { continue };
        if b.is_empty() || c.is_empty() {
            continue;
        }
        let j = judge(b, c, bound.higher_is_better, bound.bound);
        regressed |= j.verdict == Verdict::Regressed;
        let cell = |v: &[f64]| {
            let (q1, q2, q3) = stats::quartiles(v);
            format!("{q2:.4} [{q1:.4}, {q3:.4}]")
        };
        let _ = writeln!(
            out,
            "{workload:<16} {metric:<16} {:>30} {:>30} {:>6.2} {:>7.1}%  {} ({} pairs, bound {:.0}%)",
            cell(b),
            cell(c),
            j.win_share,
            j.worse_by * 100.0,
            j.verdict.label(),
            j.pairs,
            bound.bound * 100.0
        );
    }
    // A request the change fails instead of answering slowly would lower
    // its latency, so more failures regress whatever the metrics say.
    for (workload, &b) in &base.failures {
        let Some(&c) = change.failures.get(workload) else { continue };
        let worse = fails_more(b, c);
        regressed |= worse;
        let _ = writeln!(
            out,
            "{workload:<16} {:<16} {:>30} {:>30} {:>6} {:>8}  {}",
            "failed",
            format!("{} of {}", b.0, b.1),
            format!("{} of {}", c.0, c.1),
            "",
            "",
            if worse { Verdict::Regressed } else { Verdict::Unchanged }.label()
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10).map(|i| center + jitter * (f64::from(i % 5) - 2.0)).collect()
    }

    #[test]
    fn a_clear_win_is_an_improvement() {
        let j = judge(&runs(10.0, 0.1), &runs(8.0, 0.1), false, 0.1);
        assert_eq!(j.verdict, Verdict::Improved);
        assert_eq!(j.win_share, 1.0);
        assert!(j.worse_by < 0.0);
    }

    #[test]
    fn fewer_than_ten_pairs_cannot_claim_a_gain() {
        let j = judge(&runs(10.0, 0.1)[..5], &runs(8.0, 0.1)[..5], false, 0.1);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn worsening_past_the_bound_regresses_in_either_direction() {
        assert_eq!(
            judge(&runs(10.0, 0.1), &runs(11.5, 0.1), false, 0.1).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&runs(100.0, 1.0), &runs(85.0, 1.0), true, 0.1).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&runs(10.0, 0.1), &runs(10.5, 0.1), false, 0.1).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_wide_parent_spread_is_unresolved() {
        // Parent IQR ≈ 30% of its median against a 10% bound.
        let base = runs(10.0, 1.5);
        assert_eq!(judge(&base, &runs(10.2, 1.5), false, 0.1).verdict, Verdict::Unresolved);
        // …unless every change run beats every parent run.
        assert_eq!(judge(&base, &runs(6.0, 0.1), false, 0.1).verdict, Verdict::Improved);
    }

    #[test]
    fn bounds_and_runs_are_read_from_json() {
        let benchmark = crate::json::parse(
            r#"{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let b = bounds(&benchmark).unwrap();
        assert_eq!(
            b,
            vec![Bound { name: "latency_p50_ms".into(), higher_is_better: false, bound: 0.1 }]
        );
        let doc = crate::json::parse(
            r#"[{"workload":"analyze-cold","trace":false,"metrics":{"latency_p50_ms":{"value":4.2,"unit":"ms"}}},
                {"workload":"analyze-cold","trace":true,"metrics":{"kernel.sweep_ms":{"value":3.0,"unit":"ms"}}}]"#,
        )
        .unwrap();
        let runs = collect(&[doc]);
        assert_eq!(runs.metrics.len(), 1, "traced results carry no bounded metrics");
        let key = ("analyze-cold".to_string(), "latency_p50_ms".to_string());
        assert_eq!(runs.metrics[&key], vec![4.2]);
    }

    fn side(failed: u64, seconds: f64) -> Runs {
        let doc = crate::json::parse(&format!(
            r#"{{"workload":"analyze-cold","trace":false,"seconds":{seconds},"attempted":500,
                "failed":{failed},"metrics":{{"latency_tail_ms":{{"value":7.0,"unit":"ms"}}}}}}"#
        ))
        .unwrap();
        collect(&[doc.clone(), doc])
    }

    #[test]
    fn more_failures_regress_even_with_a_better_tail() {
        let bounds =
            vec![Bound { name: "latency_tail_ms".into(), higher_is_better: false, bound: 0.1 }];
        let base = side(0, 15.0);
        let mut change = side(3, 15.0);
        assert_eq!(change.failures["analyze-cold"], (6.0, 1000.0));
        // The change answers faster, but fails where the parent did not.
        change.metrics.values_mut().for_each(|v| v.iter_mut().for_each(|x| *x = 5.0));
        let (table, regressed) = report(&bounds, &base, &change).unwrap();
        assert!(regressed, "{table}");
        assert!(table.contains("6 of 1000"), "{table}");
        let (_, regressed) = report(&bounds, &base, &side(0, 15.0)).unwrap();
        assert!(!regressed);
        assert!(!fails_more((3.0, 100.0), (5.0, 1000.0)), "shares, not counts, are compared");
    }

    #[test]
    fn runs_of_different_lengths_are_refused() {
        let bounds = Vec::new();
        assert!(report(&bounds, &side(0, 15.0), &side(0, 10.0)).is_err());
    }
}
