//! `ledger compare BASE NEW`: one row per workload × end-to-end metric
//! from two result files (written with `--out`, one line per run),
//! judged by the rule later performance changes are held to.

use crate::contract::{EndToEnd, END_TO_END};
use crate::json::{self, Value};
use crate::stats::{median, spread};
use crate::workloads::SPECS;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of a side exceeds the bound, so a change
    /// of the size of the bound cannot be told from noise.
    Unresolved,
}

/// Judge `new` against `base` for one metric.
///
/// `worse` when the new median is worse than the base median by more
/// than the bound. Where either side's inter-quartile spread exceeds
/// the bound the row is `unresolved`, unless every new run reads better
/// than every base run.
pub fn judge(metric: &EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    let lower_is_better = metric.better == "lower";
    let (b, n) = (median(base), median(new));
    let worsening = if lower_is_better { n - b } else { b - n } / b.abs();
    if spread(base).max(spread(new)) > metric.bound {
        let all_better = new.iter().all(|&x| {
            base.iter()
                .all(|&y| if lower_is_better { x < y } else { x > y })
        });
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The untraced runs of a result file: `(workload, metric) → values`.
fn read_runs(path: &str) -> Result<Vec<(String, String, Vec<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs: Vec<(String, String, Vec<f64>)> = Vec::new();
    for (k, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", k + 1))?;
        if record.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", k + 1))?;
        let metrics = record
            .get("metrics")
            .ok_or_else(|| format!("{path}:{}: no metrics", k + 1))?;
        for (name, m) in metrics.fields() {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}:{}: {name} has no value", k + 1))?;
            match runs.iter_mut().find(|(w, n, _)| w == workload && n == name) {
                Some((_, _, values)) => values.push(value),
                None => runs.push((workload.to_string(), name.clone(), vec![value])),
            }
        }
    }
    Ok(runs)
}

pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let [base_path, new_path] = argv else {
        return Err("usage: ledger compare BASE.jsonl NEW.jsonl".into());
    };
    let (base, new) = (read_runs(base_path)?, read_runs(new_path)?);
    let find = |runs: &[(String, String, Vec<f64>)], w: &str, m: &str| {
        runs.iter()
            .find(|(rw, rm, _)| rw == w && rm == m)
            .map(|(_, _, v)| v.clone())
    };
    println!(
        "{:<16} {:<13} {:>12} {:>12} {:>7} {:>6} {:>7} {:>5}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound", "spread", "runs"
    );
    let (mut rows, mut not_ok) = (0, 0);
    for spec in &SPECS {
        for metric in &END_TO_END {
            let (Some(b), Some(n)) = (
                find(&base, spec.name, metric.name),
                find(&new, spec.name, metric.name),
            ) else {
                continue;
            };
            let verdict = judge(metric, &b, &n);
            rows += 1;
            not_ok += usize::from(verdict != Verdict::Ok);
            println!(
                "{:<16} {:<13} {:>12.4} {:>12.4} {:>7.3} {:>6.2} {:>7.3} {:>2}/{:<2}  {}",
                spec.name,
                metric.name,
                median(&b),
                median(&n),
                median(&n) / median(&b), // base: the BASE file's median
                metric.bound,
                spread(&b).max(spread(&n)),
                b.len(),
                n.len(),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload × end-to-end metric".into());
    }
    println!("{rows} rows, {not_ok} not ok");
    Ok(if not_ok == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const P50: &EndToEnd = &EndToEnd {
        name: "p50",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    };
    const RATE: &EndToEnd = &EndToEnd {
        name: "rate",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(judge(P50, &steady, &[10.5, 10.6, 10.4, 10.5]), Verdict::Ok);
        assert_eq!(
            judge(P50, &steady, &[11.5, 11.6, 11.4, 11.5]),
            Verdict::Worse
        );
        assert_eq!(judge(P50, &steady, &[8.0, 8.1, 7.9, 8.0]), Verdict::Ok);
        // Higher is better: a drop is the regression.
        assert_eq!(judge(RATE, &steady, &[8.5, 8.6, 8.4, 8.5]), Verdict::Worse);
        assert_eq!(judge(RATE, &steady, &[11.5, 11.6, 11.4, 11.5]), Verdict::Ok);
        // A noisy side cannot resolve a 10 % bound …
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(P50, &noisy, &steady), Verdict::Unresolved);
        assert_eq!(judge(P50, &steady, &noisy), Verdict::Unresolved);
        // … unless every new run beats every base run.
        assert_eq!(judge(P50, &noisy, &[5.0, 5.1, 4.9, 5.0]), Verdict::Ok);
        // One run a side has no spread: judged on the medians alone.
        assert_eq!(judge(P50, &[10.0], &[11.5]), Verdict::Worse);
    }

    #[test]
    fn result_files_are_read_back_and_compared() {
        let dir = std::env::temp_dir().join(format!("ledger-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, p50s: &[f64]| {
            let path = dir.join(name);
            let text: String = p50s
                .iter()
                .map(|v| {
                    format!(
                        "{{\"workload\": \"spd_refactor\", \"seed\": 1, \"trace\": 0, \"metrics\": {{\"solve_ms_p50\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}\n\
                         {{\"workload\": \"spd_refactor\", \"seed\": 1, \"trace\": 1, \"metrics\": {{\"plan.factor_ms_p50\": {{\"value\": 1, \"unit\": \"ms\"}}}}}}\n"
                    )
                })
                .collect();
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        let base = write("base.jsonl", &[10.0, 10.1, 9.9]);
        let same = write("same.jsonl", &[10.2, 10.0, 10.1]);
        let slow = write("slow.jsonl", &[13.0, 13.1, 12.9]);
        let runs = read_runs(&base).unwrap();
        assert_eq!(
            runs,
            [(
                "spd_refactor".into(),
                "solve_ms_p50".into(),
                vec![10.0, 10.1, 9.9]
            )]
        );
        assert_eq!(run(&[base.clone(), same]), Ok(ExitCode::SUCCESS));
        assert_eq!(run(&[base.clone(), slow]), Ok(ExitCode::FAILURE));
        assert!(run(&[base]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
