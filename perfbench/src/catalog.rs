//! Every workload and metric the benchmark may emit, with the
//! end-to-end metric each per-layer metric is expected to move.
//!
//! This table is the single source the report checks emitted names
//! against; `BENCHMARK.json` at the repository root must list the same
//! workloads and metrics (the self-tests compare the two).

/// The default workload seed, and the holdout seed a gain claim must
/// also hold on (never used while tuning a change).
pub const DEFAULT_SEED: u64 = 1;
/// See [`DEFAULT_SEED`].
pub const HOLDOUT_SEED: u64 = 7_919;

/// The four workloads, each the only one that measures some layer.
pub const WORKLOADS: [&str; 4] = ["paper_sweep", "sharded_large", "lossy_qcr", "solve_service"];

/// One metric: name, unit, and for a per-layer metric the workload in
/// whose setting it is measured and the end-to-end metric it should move
/// there (`fail_share` is the result line's `failed / attempted`; `none`
/// marks a metric no gated figure includes).
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The workload whose setting a per-layer metric is measured in;
    /// empty for an end-to-end metric, which every workload reports.
    pub workload: &'static str,
    /// The end-to-end metric a per-layer metric should move.
    pub moves: &'static str,
}

const fn e(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        workload: "",
        moves: "",
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    workload: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        workload,
        moves,
    }
}

const SWEEP: &str = "paper_sweep";
const SHARDED: &str = "sharded_large";
const NET: &str = "lossy_qcr";
const SERVE: &str = "solve_service";

/// Metrics of an untraced run (`--trace 0`). Every workload reports each
/// of them for its own unit of work (see the README): a sweep pass, a
/// sharded trial, a batch of net trials, one HTTP solve.
pub const END_TO_END: &[Metric] = &[
    e("setup_s", "s"),
    e("peak_rss_mib", "MiB"),
    e("op_p50_ms", "ms"),
    e("work_per_s", "1/s"),
];

/// Metrics of a traced run (`--trace 1`). A traced run measures every
/// layer, each in the setting of the workload it belongs to, whichever
/// workload it is given.
pub const PER_LAYER: &[Metric] = &[
    m(
        "bench.trace_overhead_ratio.paper_sweep",
        "ratio",
        SWEEP,
        "none",
    ),
    m(
        "bench.trace_overhead_ratio.sharded_large",
        "ratio",
        SHARDED,
        "none",
    ),
    m("bench.trace_overhead_ratio.lossy_qcr", "ratio", NET, "none"),
    m(
        "bench.trace_overhead_ratio.solve_service",
        "ratio",
        SERVE,
        "none",
    ),
    // paper_sweep
    m("traces.stream.ns_per_contact", "ns", SWEEP, "op_p50_ms"),
    m("traces.conference.gen_ms", "ms", SWEEP, "setup_s"),
    m("exp.spec_parse_ms", "ms", SWEEP, "setup_s"),
    m("sim.engine.ns_per_contact.static", "ns", SWEEP, "op_p50_ms"),
    m("sim.engine.ns_per_contact.qcr", "ns", SWEEP, "op_p50_ms"),
    m("sim.engine.ns_per_contact.trace", "ns", SWEEP, "op_p50_ms"),
    m("sim.policy.qcr.ns_per_contact", "ns", SWEEP, "op_p50_ms"),
    m("sim.runner.worker_utilization", "share", SWEEP, "op_p50_ms"),
    m("sim.runner.busy_s", "s", SWEEP, "op_p50_ms"),
    m("core.solver.greedy_us", "us", SWEEP, "op_p50_ms"),
    m("core.solver.het_greedy_ms", "ms", SWEEP, "op_p50_ms"),
    m("exp.overhead_share", "share", SWEEP, "op_p50_ms"),
    // The price of `--profile`: no gated figure runs with spans armed,
    // and the disarmed path must not move `op_p50_ms`.
    m("obs.span.armed_ratio", "ratio", SWEEP, "none"),
    m("obs.span.spans_recorded", "count", SWEEP, "none"),
    m("sim.engine.contacts", "count", SWEEP, "work_per_s"),
    m(
        "sim.policy.qcr.mandates_created",
        "count",
        SWEEP,
        "op_p50_ms",
    ),
    m("sim.policy.qcr.transmissions", "count", SWEEP, "op_p50_ms"),
    m(
        "sim.engine.immediate_hit_share",
        "share",
        SWEEP,
        "op_p50_ms",
    ),
    // sharded_large
    m("sim.sharded.ns_per_contact", "ns", SHARDED, "work_per_s"),
    m("sim.sharded.ns_per_contact_w1", "ns", SHARDED, "work_per_s"),
    m(
        "sim.sharded.parallel_efficiency",
        "share",
        SHARDED,
        "work_per_s",
    ),
    m("sim.sharded.cpu_util", "share", SHARDED, "work_per_s"),
    m(
        "sim.sharded.contacts_processed",
        "count",
        SHARDED,
        "work_per_s",
    ),
    m("sim.sharded.rss_mib", "MiB", SHARDED, "peak_rss_mib"),
    // lossy_qcr
    m("net.kernel.ns_per_msg", "ns", NET, "work_per_s"),
    m("net.msgs_per_contact", "ratio", NET, "work_per_s"),
    m("net.retry_share", "share", NET, "work_per_s"),
    m("net.delivered_share", "share", NET, "work_per_s"),
    // solve_service: the p50 drivers move `op_p50_ms`; the tail drivers
    // move `work_per_s`, since the slow requests' share of the mix sets
    // the closed-loop rate.
    m("json.parse_us", "us", SERVE, "op_p50_ms"),
    m("serve.request_from_json_us", "us", SERVE, "op_p50_ms"),
    m("serve.reply_to_json_us", "us", SERVE, "op_p50_ms"),
    m("serve.pool.solve_us.hit", "us", SERVE, "op_p50_ms"),
    m("core.solver.delta.apply_us", "us", SERVE, "op_p50_ms"),
    m(
        "core.solver.delta.gain_evaluations",
        "count",
        SERVE,
        "op_p50_ms",
    ),
    m("serve.solve_p99_ms", "ms", SERVE, "work_per_s"),
    m("serve.pool.solve_us.miss", "us", SERVE, "work_per_s"),
    m("serve.pool.solve_us.stale", "us", SERVE, "work_per_s"),
    m("core.solver.try_new_ms", "ms", SERVE, "work_per_s"),
    m("core.solver.relaxed_ms", "ms", SERVE, "work_per_s"),
    m("serve.pool.hit_share", "share", SERVE, "work_per_s"),
    m("serve.http.overhead_us", "us", SERVE, "op_p50_ms"),
    m("serve.sustained_rps", "1/s", SERVE, "work_per_s"),
    m("serve.backlog_max", "count", SERVE, "work_per_s"),
    m("serve.generator.lag_ms", "ms", SERVE, "work_per_s"),
    m("serve.status_429", "count", SERVE, "fail_share"),
    m("serve.status_5xx", "count", SERVE, "fail_share"),
];

/// The metrics every run reports in the given mode.
pub fn expected(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Metric and workload names: letters, digits, `_`, `.` and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn catalog(table: &[Metric]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_name_the_benchmark_can_emit_is_listed_in_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(names_units(&doc, "end_to_end"), catalog(END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), catalog(PER_LAYER));
        let workloads: Vec<String> = names_units(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_well_formed_unique_and_measured_in_a_workload() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.workload.is_empty()));
        for m in PER_LAYER {
            assert!(
                WORKLOADS.contains(&m.workload),
                "{} has no workload",
                m.name
            );
        }
        for w in WORKLOADS {
            assert!(valid_name(w));
            let overhead = format!("bench.trace_overhead_ratio.{w}");
            assert!(PER_LAYER.iter().any(|m| m.name == overhead));
        }
        assert!(expected(false).iter().any(|m| m.name == "setup_s"));
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name(""));
    }

    #[test]
    fn every_layer_metric_names_the_end_to_end_metric_it_moves() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        for m in PER_LAYER {
            // fail_share is reported through `attempted` and `failed`.
            assert!(
                e2e.contains(&m.moves) || matches!(m.moves, "fail_share" | "none"),
                "{} moves unknown {}",
                m.name,
                m.moves
            );
        }
    }

    #[test]
    fn bounds_are_within_the_contract_and_setup_has_the_largest() {
        let doc = benchmark_json();
        let metrics = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("a bound");
        let largest = metrics.iter().map(bound).fold(0.0, f64::max);
        for m in metrics {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25);
        }
        let setup = metrics
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
            .expect("setup_s");
        assert_eq!(bound(setup), largest);
    }
}
