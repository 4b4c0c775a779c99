//! The result of one run: metrics checked against the catalog, the
//! operation and output-check tallies behind `fail_share`, and the final
//! JSON line.

use impatience_json::Json;
use impatience_obs::stats::{nearest_rank, percentile_sorted};

use crate::catalog::{self, Metric};

/// Metrics, operations and output checks of one run.
pub struct Report {
    traced: bool,
    metrics: Vec<(&'static Metric, f64)>,
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Report {
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failed_checks: Vec::new(),
        }
    }

    /// Record a metric. Every name must be in the catalog for this mode;
    /// anything else is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = catalog::expected(self.traced)
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this mode"));
        assert!(
            self.metrics.iter().all(|(m, _)| m.name != name),
            "{name} reported twice"
        );
        self.metrics.push((metric, value));
    }

    /// Count operations: `n` attempted, `failed` of them failed or refused.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Count one output check; a failing check is a failed operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.ops(1, u64::from(!ok));
        if !ok {
            eprintln!("check failed: {what}");
            self.failed_checks.push(what.to_string());
        }
    }

    /// Human-readable lines plus the final result line. Fails when a
    /// metric of the mode is missing or not finite.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        let mut metrics = Vec::new();
        for want in catalog::expected(self.traced) {
            let value = self
                .metrics
                .iter()
                .find(|(m, _)| m.name == want.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {} was not measured", want.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", want.name));
            }
            let moves = if want.moves.is_empty() {
                String::new()
            } else {
                format!("  -> {} on {}", want.moves, want.workload)
            };
            out.push_str(&format!(
                "{:<40} {value:>16.6} {}{moves}\n",
                want.name, want.unit
            ));
            metrics.push((
                want.name,
                Json::obj([
                    ("value", Json::from(value)),
                    ("unit", Json::from(want.unit)),
                ]),
            ));
        }
        let fail_share = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "{:<40} {fail_share:>16.6} share ({} of {} operations and checks failed)\n",
            "fail_share", self.failed, self.attempted
        ));
        let result = Json::obj([
            ("correct", Json::from(self.failed_checks.is_empty())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ]);
        out.push_str(&result.to_string());
        Ok(out)
    }
}

/// Run one set-up and add its time to `setups`; what it built is
/// returned, so dropping it stays outside the timed region. Where set-up
/// is cheap, workloads repeat it before every repetition, so the median
/// of `setups` samples the host over the whole run, not one moment.
pub fn time_setup<T>(
    setups: &mut Vec<f64>,
    setup: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let t0 = std::time::Instant::now();
    let built = setup()?;
    setups.push(t0.elapsed().as_secs_f64());
    Ok(built)
}

/// Repetitions whose steal share exceeds the run's quietest one by more
/// than this are set aside by [`quiet_median`].
const QUIET_MARGIN: f64 = 0.01;

/// Median of `(value, steal share)` repetitions, over those the
/// hypervisor disturbed least: within one percentage point of steal of
/// the run's quietest repetition. A stolen worker stalls the others at
/// the next barrier, so a few percent of steal can cost a parallel
/// repetition a quarter of its speed; the selection looks only at the
/// host, never at the value. On a quiet host every repetition is kept.
pub fn quiet_median(reps: &[(f64, f64)]) -> f64 {
    let quietest = reps.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let kept: Vec<f64> = reps
        .iter()
        .filter(|r| r.1 <= quietest + QUIET_MARGIN)
        .map(|r| r.0)
        .collect();
    median(&kept)
}

/// Median (nearest rank) of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 0.5)
}

/// The `q`-percentile of `values`, or `None` when fewer than ten samples
/// lie beyond it — a tail read off fewer samples is noise, not a figure.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len() as u64;
    if n == 0 || n - nearest_rank(q, n) < 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(989.0));
        assert_eq!(tail_percentile(&ramp(19), 0.5), None);
        assert_eq!(tail_percentile(&ramp(20), 0.5), Some(9.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn quiet_median_sets_aside_the_repetitions_the_host_stole_from() {
        let reps = [
            (10.0, 0.002),
            (6.0, 0.08),
            (9.0, 0.01),
            (5.0, 0.12),
            (11.0, 0.0),
        ];
        assert_eq!(quiet_median(&reps), 10.0);
        let calm = [(10.0, 0.002), (6.0, 0.004), (9.0, 0.003)];
        assert_eq!(
            quiet_median(&calm),
            9.0,
            "a quiet host keeps every repetition"
        );
    }

    fn untraced_report() -> Report {
        let mut r = Report::new(false);
        r.set("setup_s", 0.5);
        r.set("peak_rss_mib", 10.0);
        r.set("op_p50_ms", 3.0);
        r
    }

    #[test]
    fn render_requires_every_metric_of_the_mode() {
        let mut r = untraced_report();
        assert!(r.render().is_err(), "work_per_s is missing");
        r.set("work_per_s", 3e6);
        r.check("ok", true);
        let text = r.render().expect("complete");
        let last = Json::parse(text.lines().last().expect("a result line")).expect("json");
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("attempted").and_then(Json::as_u64), Some(1));
        let keys: Vec<&str> = last
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = last
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), catalog::END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "is not a metric of this mode")]
    fn a_per_layer_metric_is_refused_in_an_untraced_run() {
        Report::new(false).set("json.parse_us", 1.0);
    }

    #[test]
    fn a_failed_check_counts_against_correctness() {
        let mut r = untraced_report();
        r.set("work_per_s", 3e6);
        r.ops(10, 0);
        r.check("conservation", false);
        let text = r.render().expect("complete");
        let last = Json::parse(text.lines().last().expect("a result line")).expect("json");
        assert_eq!(last.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(last.get("attempted").and_then(Json::as_u64), Some(11));
        assert_eq!(last.get("failed").and_then(Json::as_u64), Some(1));
    }
}
