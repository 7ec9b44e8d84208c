//! What `BENCHMARK.json` promises: the metric names, units and
//! directions, and the shape of the result line. The lists here are the
//! source; a test holds `BENCHMARK.json` to them.

use crate::json::{self, Value};
use crate::layers::Ledger;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload.
///
/// The three timings carry the widest bound the driver allows. The
/// driver refuses a benchmark whose run-to-run spread (inter-quartile,
/// as a share of the median, over ten runs) exceeds the bound, and the
/// box is shared: its memory system is slowed by other tenants for
/// seconds to minutes at a time, so ten 20 s runs of one binary spread
/// by 3–8 % on the median latency and 6–14 % on the rate in an ordinary
/// hour, more in a busy one. Peak RSS does not see that noise and keeps
/// 0.10.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "solves_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// The per-layer metrics `(name, unit, better)`, grouped by layer.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    ("sparse.permute_ms", "ms", LOWER),
    ("graph.prepivot_ms", "ms", LOWER),
    ("graph.ordering_ms", "ms", LOWER),
    ("graph.symbolic_ms", "ms", LOWER),
    ("graph.supernode_ms", "ms", LOWER),
    ("graph.levels_ms", "ms", LOWER),
    ("graph.chol_symbolic_ms", "ms", LOWER),
    ("graph.fill_ratio", "ratio", LOWER),
    ("graph.panel_mean_width", "cols", HIGHER),
    ("graph.padded_zeros", "count", LOWER),
    ("graph.dag_levels", "count", LOWER),
    ("graph.dag_work_over_span", "ratio", HIGHER),
    ("dense.getrf_gflops", "GFLOP/s", HIGHER),
    ("dense.trsm_gflops", "GFLOP/s", HIGHER),
    ("dense.gemm_gflops", "GFLOP/s", HIGHER),
    ("dense.potrf_gflops", "GFLOP/s", HIGHER),
    ("dense.replay_ms", "ms", LOWER),
    ("dense.replay_share", "ratio", HIGHER),
    ("dense.chol_replay_ms", "ms", LOWER),
    ("dense.chol_replay_share", "ratio", HIGHER),
    ("compile.lu_ms_p50", "ms", LOWER),
    ("compile.self_ms", "ms", LOWER),
    ("compile.chol_ms", "ms", LOWER),
    ("compile.tri_ms", "ms", LOWER),
    ("compile.flops", "flop", LOWER),
    ("compile.table_bytes_per_nnz", "B/nnz", LOWER),
    ("compile.tier", "tier", HIGHER),
    ("plan.factor_ms_p50", "ms", LOWER),
    ("plan.solve_ms_p50", "ms", LOWER),
    ("plan.factor_gflops", "GFLOP/s", HIGHER),
    ("plan.ns_per_factor_nnz", "ns", LOWER),
    ("plan.table_bytes_per_flop", "B/flop", LOWER),
    ("plan.factor_2t_ms_p50", "ms", LOWER),
    ("plan.batch8_ms_per_mat", "ms", LOWER),
    ("plan.solve4_ms_per_rhs", "ms", LOWER),
    ("plan.refined_solve_ms", "ms", LOWER),
    ("plan.chol_factor_ms_p50", "ms", LOWER),
    ("plan.chol_solve_ms_p50", "ms", LOWER),
    ("plan.tri_solve_us_p50", "us", LOWER),
    ("serve.hash_us", "us", LOWER),
    ("serve.lookup_hit_us", "us", LOWER),
    ("serve.hit_ms_p50", "ms", LOWER),
    ("serve.miss_ms_p50", "ms", LOWER),
    ("serve.dispatch_us", "us", LOWER),
    ("serve.hit_rate", "ratio", HIGHER),
    ("serve.evictions", "count", LOWER),
    ("solvers.gplu_ms_p50", "ms", LOWER),
    ("solvers.chol_supernodal_ms_p50", "ms", LOWER),
    ("solvers.chol_simplicial_ms_p50", "ms", LOWER),
    ("ratio.vs_coupled", "ratio", HIGHER),
    ("ratio.break_even_solves", "count", LOWER),
    ("obs.trace_overhead_frac", "ratio", LOWER),
    ("obs.profile_overhead_frac", "ratio", LOWER),
    ("quiet.solve_ms_p50", "ms", LOWER),
    ("quiet.solves_per_s", "1/s", HIGHER),
    ("request.traced_ms_p50", "ms", LOWER),
    ("tail.solve_ms_p90", "ms", LOWER),
    ("tail.solve_ms_p99", "ms", LOWER),
    ("tail.solve_ms_max", "ms", LOWER),
    ("budget.sum_ms", "ms", LOWER),
    ("budget.gap_frac", "ratio", LOWER),
];

/// The last line of a run: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding exactly the `wanted` names, each
/// in the unit promised for it.
pub fn result_line(
    ledger: &Ledger,
    wanted: &[(&str, &str)],
    attempted: usize,
    failed: usize,
) -> Result<Value, String> {
    let metrics = wanted
        .iter()
        .map(|&(name, unit)| {
            let m = ledger
                .0
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not a number: {}", m.value));
            }
            if m.unit != unit {
                return Err(format!("metric {name} is in {}, not {unit}", m.unit));
            }
            Ok((
                name,
                json::obj([
                    ("value", Value::Number(m.value)),
                    ("unit", json::str(m.unit)),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if ledger.0.len() != wanted.len() {
        let extra: Vec<&str> = ledger
            .0
            .iter()
            .map(|m| m.name)
            .filter(|n| wanted.iter().all(|(w, _)| w != n))
            .collect();
        return Err(format!(
            "metrics measured but not in the contract: {extra:?}"
        ));
    }
    Ok(json::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Number(attempted as f64)),
        ("failed", Value::Number(failed as f64)),
        ("metrics", json::obj(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    fn names(list: &Value) -> Vec<&str> {
        let items = list.as_array().expect("a list");
        items
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_program_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );

        let workloads = doc.get("workloads").unwrap();
        assert_eq!(names(workloads), SPECS.map(|s| s.name));
        for (item, spec) in workloads.as_array().unwrap().iter().zip(&SPECS) {
            assert_eq!(item.get("why").and_then(Value::as_str), Some(spec.why));
            assert_eq!(item.fields().len(), 2);
        }

        let e2e = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(item.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(item.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(item.get("better").and_then(Value::as_str), Some(m.better));
            assert_eq!(item.get("bound").and_then(Value::as_f64), Some(m.bound));
            assert_eq!(item.fields().len(), 4);
            assert!(m.bound <= 0.25);
        }

        let layers = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (item, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(item.get("name").and_then(Value::as_str), Some(*name));
            assert_eq!(item.get("unit").and_then(Value::as_str), Some(*unit));
            assert_eq!(item.get("better").and_then(Value::as_str), Some(*better));
            assert_eq!(item.fields().len(), 3);
        }
    }

    #[test]
    fn names_and_units_fit_the_contract_s_alphabet() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = Vec::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
            .chain(SPECS.iter().map(|s| (s.name, "count")));
        for (name, unit) in all {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(!seen.contains(&name), "{name} is used twice");
            seen.push(name);
        }
    }

    #[test]
    fn the_result_line_holds_exactly_the_wanted_metrics() {
        let mut l = Ledger::default();
        l.push("solve_ms_p50", 1.5, "ms", 10);
        l.push("setup_s", 0.25, "s", 5);
        let wanted = [("setup_s", "s"), ("solve_ms_p50", "ms")];
        let line = result_line(&l, &wanted, 100, 0).unwrap();
        assert_eq!(
            json::encode(&line),
            r#"{"correct": true, "attempted": 100, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "solve_ms_p50": {"value": 1.5, "unit": "ms"}}}"#
        );
        let failed = result_line(&l, &wanted, 100, 3).unwrap();
        assert_eq!(failed.get("correct"), Some(&Value::Bool(false)));
        assert!(
            result_line(&l, &wanted[..1], 1, 0).is_err(),
            "an extra metric"
        );
        let missing = [wanted[0], wanted[1], ("x", "ms")];
        assert!(result_line(&l, &missing, 1, 0).is_err());
        let other_unit = [wanted[0], ("solve_ms_p50", "us")];
        assert!(result_line(&l, &other_unit, 1, 0).is_err());
        l.push("bad", f64::NAN, "ms", 0);
        let not_a_number = [wanted[0], wanted[1], ("bad", "ms")];
        assert!(result_line(&l, &not_a_number, 1, 0).is_err());
    }
}
