//! `simulate --shards N --profile` splits a sharded trial's thread time
//! into phase A, phase B and scheduling wait. The spans behind that split
//! are per task: one `shard` span per shard and epoch, one `cross` span
//! per lane and epoch, on whichever thread ran the task. Span state is
//! process-wide, so this binary holds a single test.

use std::sync::Arc;

use impatience_core::demand::Popularity;
use impatience_core::utility::Step;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::policy::PolicyKind;
use impatience_sim::sharded::{epoch_threads, phase_shares, run_trial_sharded};

/// Calls of every span whose path ends in `leaf`.
fn calls(report: &impatience_obs::span::PhaseReport, leaf: &str) -> u64 {
    report
        .phases
        .iter()
        .filter(|p| p.path.rsplit('/').next() == Some(leaf))
        .map(|p| p.calls)
        .sum()
}

#[test]
fn profiled_trials_split_thread_time_by_phase() {
    let config = SimConfig::builder(12, 2)
        .demand(Popularity::pareto(12, 1.0).demand_rates(0.8))
        .utility(Arc::new(Step::new(15.0)))
        .bin(100.0)
        .build();
    // 20 epochs of 5 min per bin, about 5000 contacts each: above the
    // inline threshold.
    let source = ContactSource::homogeneous(10_000, 2e-5, 200.0);
    let epochs = 40;
    impatience_obs::span::enable();
    let _ = impatience_obs::span::take_report();
    for workers in [1, 2] {
        let threads = epoch_threads(&config, &source, workers);
        assert_eq!(threads, workers, "the epochs clear the inline threshold");
        run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 9, workers)
            .expect("supported configuration");
        let report = impatience_obs::span::take_report();
        assert_eq!(calls(&report, "sharded_trial"), 1);
        assert_eq!(calls(&report, "shard"), 16 * epochs, "{workers} workers");
        assert_eq!(calls(&report, "cross"), 120 * epochs, "{workers} workers");
        assert_eq!(
            calls(&report, "sharded_worker"),
            (threads as u64 - 1) * epochs,
            "one span per spawned thread and epoch"
        );
        let split = phase_shares(&report).expect("sharded spans recorded");
        assert!(split.phase_a > 0.0 && split.phase_b > 0.0, "{split}");
        assert!(split.phase_a + split.phase_b + split.wait <= 1.0, "{split}");
        if workers == 1 {
            assert_eq!(split.wait, 0.0, "an inline epoch never waits");
        }
    }
    impatience_obs::span::disable();
}
