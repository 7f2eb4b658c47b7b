//! `compare`: do two sets of runs of the benchmark agree? For every
//! workload × end-to-end metric it prints both set medians, their
//! relative difference, the metric's bound and PASS/FAIL. This is the
//! tool the repeatability of the benchmark itself is checked with, so the
//! test is two-sided: a set that reads *better* by more than the bound
//! disagrees just as much as one that reads worse.

use std::collections::BTreeMap;

use waves_obs::JsonValue;

use crate::spec::{self, Better, EndToEnd};
use crate::stats;

/// `(workload, metric) -> one value per run document`.
type Samples = BTreeMap<(String, String), Vec<f64>>;

#[derive(Debug, Default)]
pub struct RunSet {
    samples: Samples,
    /// Runs that reported `correct = false` or `failed > 0`.
    bad_runs: Vec<String>,
    noisy_runs: usize,
}

impl RunSet {
    /// Add one `--json-out` document.
    pub fn add(&mut self, label: &str, text: &str) -> Result<(), String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("{label}: {e}"))?;
        let runs = doc
            .get("runs")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{label}: no \"runs\" array"))?;
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{label}: run without a workload"))?;
            let correct = run.get("correct").and_then(JsonValue::as_bool) == Some(true);
            let failed = run.get("failed").and_then(JsonValue::as_u64).unwrap_or(1);
            if !correct || failed != 0 {
                self.bad_runs.push(format!("{label}:{workload}"));
            }
            if run.get("noisy").and_then(JsonValue::as_bool) == Some(true) {
                self.noisy_runs += 1;
            }
            for section in ["end_to_end", "per_layer"] {
                let Some(JsonValue::Object(metrics)) = run.get(section) else {
                    return Err(format!("{label}:{workload}: no \"{section}\" object"));
                };
                for (name, m) in metrics {
                    let value = m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("{label}:{workload}:{name}: no value"))?;
                    self.samples
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
        Ok(())
    }

    fn median(&self, workload: &str, metric: &str) -> Option<f64> {
        self.samples
            .get(&(workload.to_string(), metric.to_string()))
            .map(|xs| stats::median(xs))
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b − a) ÷ a`, signed.
    pub rel_diff: f64,
    pub better: Better,
    pub bound: f64,
    pub pass: bool,
}

/// Every gated workload × metric pair present in both sets. The
/// [`spec::COMPARE_ONLY`] metrics are gated where a workload emits them
/// (nonzero).
pub fn rows(a: &RunSet, b: &RunSet) -> Vec<Row> {
    let gated: Vec<EndToEnd> = spec::END_TO_END
        .iter()
        .chain(&spec::COMPARE_ONLY)
        .copied()
        .collect();
    let mut out = Vec::new();
    for (workload, _) in spec::WORKLOADS {
        for def in &gated {
            let (Some(ma), Some(mb)) = (a.median(workload, def.name), b.median(workload, def.name))
            else {
                continue;
            };
            if ma == 0.0 && mb == 0.0 {
                continue; // the workload does not have this metric
            }
            let rel_diff = if ma == 0.0 {
                f64::INFINITY
            } else {
                (mb - ma) / ma
            };
            out.push(Row {
                workload: workload.to_string(),
                metric: def.name,
                a: ma,
                b: mb,
                rel_diff,
                better: def.better,
                bound: def.bound,
                pass: rel_diff.abs() <= def.bound,
            });
        }
    }
    out
}

/// Print the comparison; `true` if every row passes and every run of
/// both sets was correct.
pub fn report(a: &RunSet, b: &RunSet) -> bool {
    let rows = rows(a, b);
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>9} {:<6} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "diff", "B is", "bound"
    );
    for r in &rows {
        let b_is = match (r.rel_diff > 0.0, r.better) {
            _ if r.rel_diff == 0.0 => "same",
            (true, Better::Higher) | (false, Better::Lower) => "better",
            _ => "worse",
        };
        println!(
            "{:<14} {:<24} {:>16.4} {:>16.4} {:>+8.2}% {:<6} {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.rel_diff * 100.0,
            b_is,
            r.bound * 100.0,
            match (r.pass, r.rel_diff.abs() > r.bound / 2.0) {
                (false, _) => "FAIL",
                (true, true) => "PASS (over half the bound)",
                (true, false) => "PASS",
            }
        );
    }
    for (label, set) in [("A", a), ("B", b)] {
        for bad in &set.bad_runs {
            println!("set {label}: run {bad} reported failures or correct=false  FAIL");
        }
        if set.noisy_runs > 0 {
            println!("set {label}: {} run(s) flagged noisy", set.noisy_runs);
        }
    }
    let breaches = rows.iter().filter(|r| !r.pass).count();
    println!(
        "{} rows, {} breach(es), {} bad run(s)",
        rows.len(),
        breaches,
        a.bad_runs.len() + b.bad_runs.len()
    );
    !rows.is_empty() && breaches == 0 && a.bad_runs.is_empty() && b.bad_runs.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(items_per_s: f64, recovery_s: f64, correct: bool) -> String {
        format!(
            r#"{{"trace":false,"pinned_cpu":1,"runs":[{{"workload":"durable_mixed","seed":1,
            "correct":{correct},"attempted":10,"failed":0,"noisy":false,"rounds":8,
            "end_to_end":{{"items_per_s":{{"value":{items_per_s},"unit":"bits/s"}}}},
            "per_layer":{{"recovery_s":{{"value":{recovery_s},"unit":"s"}},
                          "wire_bytes_per_kitem":{{"value":0,"unit":"bytes"}}}}}}]}}"#
        )
    }

    fn set(docs: &[String]) -> RunSet {
        let mut s = RunSet::default();
        for (i, d) in docs.iter().enumerate() {
            s.add(&format!("run{i}"), d).unwrap();
        }
        s
    }

    #[test]
    fn medians_within_bound_pass_both_ways() {
        let a = set(&[
            doc(100.0, 1.0, true),
            doc(102.0, 1.0, true),
            doc(98.0, 1.0, true),
        ]);
        let b = set(&[
            doc(104.0, 1.05, true),
            doc(105.0, 1.05, true),
            doc(106.0, 1.05, true),
        ]);
        let rows = rows(&a, &b);
        // items_per_s and recovery_s; the all-zero wire metric is skipped.
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.pass));
        assert!((rows[0].rel_diff - 0.05).abs() < 1e-12);
        assert!(report(&a, &b));
    }

    #[test]
    fn a_breach_in_either_direction_fails() {
        let a = set(&[doc(100.0, 1.0, true)]);
        let worse = set(&[doc(70.0, 1.0, true)]);
        let better = set(&[doc(130.0, 1.0, true)]);
        assert!(!rows(&a, &worse)[0].pass);
        assert!(!rows(&a, &better)[0].pass);
        assert!(!report(&a, &worse));
    }

    #[test]
    fn an_incorrect_run_fails_the_comparison() {
        let a = set(&[doc(100.0, 1.0, true)]);
        let b = set(&[doc(100.0, 1.0, false)]);
        assert!(rows(&a, &b).iter().all(|r| r.pass));
        assert!(!report(&a, &b));
    }

    #[test]
    fn malformed_documents_are_errors() {
        let mut s = RunSet::default();
        assert!(s.add("x", "{").is_err());
        assert!(s.add("x", "{}").is_err());
        assert!(s.add("x", r#"{"runs":[{"workload":"w"}]}"#).is_err());
    }
}
