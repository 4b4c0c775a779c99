//! Worker-count bit-identity contracts of the intra-trial sharded
//! engine, mirroring the discipline of `fault_tolerance.rs`: the same
//! seed must produce the identical fault log, welfare trajectory, and
//! event digest at 1, 2, and 8 workers — fault injection included — and
//! the sharded engine must statistically agree with the serial engine on
//! the model they both simulate.

use impatience_core::demand::Popularity;
use impatience_core::utility::Step;
use impatience_sim::config::{ConfigError, ContactSource, SimConfig};
use impatience_sim::faults::{CacheFaults, Churn, ContactDrop, FaultConfig};
use impatience_sim::policy::PolicyKind;
use impatience_sim::runner::{run_trials, run_trials_sharded};
use impatience_sim::sharded::{run_trial_sharded, ShardedOutcome};
use std::sync::Arc;

fn config(faults: Option<FaultConfig>) -> SimConfig {
    let mut builder = SimConfig::builder(12, 2)
        .demand(Popularity::pareto(12, 1.0).demand_rates(0.8))
        .utility(Arc::new(Step::new(15.0)))
        .bin(100.0)
        .warmup_fraction(0.25);
    if let Some(fc) = faults {
        builder = builder.faults(fc);
    }
    builder.build()
}

fn all_supported_faults() -> FaultConfig {
    FaultConfig {
        seed: 31,
        drop: Some(ContactDrop {
            p: 0.25,
            mean_burst: 3.0,
        }),
        cache: Some(CacheFaults { rate: 0.002 }),
        truncate_fraction: Some(0.9),
        ..FaultConfig::default()
    }
}

fn run(workers: usize, faults: Option<FaultConfig>, seed: u64) -> ShardedOutcome {
    run_policy(PolicyKind::qcr_default(), workers, faults, seed)
}

fn run_policy(
    policy: PolicyKind,
    workers: usize,
    faults: Option<FaultConfig>,
    seed: u64,
) -> ShardedOutcome {
    let source = ContactSource::homogeneous(96, 0.01, 1_500.0);
    run_trial_sharded(&config(faults), &source, policy, seed, workers)
        .expect("supported configuration")
}

/// Golden values of one sharded trial: event digest, contacts processed,
/// mandates created, transmissions and final replica counts. Comparing
/// worker counts with each other cannot catch a change to the protocol
/// that moves every worker count alike; these literals can.
type Pin = (u64, u64, u64, u64, [u32; 12]);

fn assert_pinned(out: &ShardedOutcome, pin: Pin, what: &str) {
    let (digest, contacts, mandates, transmissions, replicas) = pin;
    assert_eq!(out.event_digest, digest, "{what}: event digest");
    assert_eq!(out.contacts_processed, contacts, "{what}: contacts");
    let m = &out.outcome.metrics;
    assert_eq!(m.mandates_created, mandates, "{what}: mandates created");
    assert_eq!(m.transmissions, transmissions, "{what}: transmissions");
    assert_eq!(
        out.outcome.final_replicas, replicas,
        "{what}: final replicas"
    );
}

fn faulty_pin(seed: u64) -> Pin {
    match seed {
        3 => (
            0x47ed_4a9e_e7c4_fa83,
            45_736,
            164,
            163,
            [19, 8, 8, 4, 6, 4, 11, 6, 4, 5, 2, 8],
        ),
        17 => (
            0x0267_4abb_7be5_e124,
            46_400,
            173,
            173,
            [10, 10, 7, 7, 9, 4, 5, 5, 10, 2, 2, 3],
        ),
        _ => unreachable!("no pin for seed {seed}"),
    }
}

fn clean_pin(seed: u64) -> Pin {
    match seed {
        3 => (
            0xb476_ced5_75bc_4535,
            68_382,
            116,
            116,
            [35, 24, 17, 12, 17, 13, 14, 15, 8, 13, 12, 12],
        ),
        11 => (
            0x42b8_aaad_469c_8373,
            68_589,
            117,
            117,
            [25, 26, 15, 14, 15, 18, 11, 9, 14, 12, 16, 17],
        ),
        17 => (
            0xbb4e_c7ab_9c29_7208,
            68_483,
            139,
            139,
            [31, 20, 18, 16, 17, 14, 12, 16, 16, 13, 12, 7],
        ),
        _ => unreachable!("no pin for seed {seed}"),
    }
}

/// Every observable artifact of a trial is a pure function of the seed,
/// independent of the worker count — the tentpole guarantee, checked
/// with the full supported fault set active.
#[test]
fn worker_count_never_changes_any_bit() {
    for seed in [3, 17] {
        let baseline = run(1, Some(all_supported_faults()), seed);
        assert!(
            !baseline.fault_log.is_empty(),
            "fault injection must be live for the gate to mean anything"
        );
        assert!(baseline.outcome.metrics.contacts_dropped > 0);
        assert!(baseline.contacts_processed > 1_000);
        assert_pinned(&baseline, faulty_pin(seed), "1 worker");
        for workers in [2, 8] {
            let other = run(workers, Some(all_supported_faults()), seed);
            assert_pinned(&other, faulty_pin(seed), &format!("{workers} workers"));
            assert_eq!(
                other.event_digest, baseline.event_digest,
                "{workers} workers"
            );
            assert_eq!(other.fault_log, baseline.fault_log, "{workers} workers");
            assert_eq!(other.contacts_processed, baseline.contacts_processed);
            assert_eq!(
                other.outcome.final_replicas,
                baseline.outcome.final_replicas
            );
            let (m, b) = (&other.outcome.metrics, &baseline.outcome.metrics);
            assert_eq!(m.observed_rate_series(), b.observed_rate_series());
            assert_eq!(m.expected_utility_series(), b.expected_utility_series());
            assert_eq!(m.requests_created, b.requests_created);
            assert_eq!(m.immediate_hits, b.immediate_hits);
            assert_eq!(m.transmissions, b.transmissions);
            assert_eq!(m.unfulfilled, b.unfulfilled);
            assert_eq!(m.mandates_created, b.mandates_created);
            assert_eq!(m.contacts_dropped, b.contacts_dropped);
            assert_eq!(m.cache_faults, b.cache_faults);
        }
    }
}

/// The clean-network path (no fault state at all) must be worker-stable
/// too — it skips the admission code entirely, so it needs its own gate.
#[test]
fn clean_runs_are_worker_stable() {
    for seed in [11, 3, 17] {
        let baseline = run(1, None, seed);
        assert!(baseline.fault_log.is_empty());
        assert_pinned(&baseline, clean_pin(seed), "1 worker");
        for workers in [2, 8] {
            let other = run(workers, None, seed);
            assert_eq!(other.event_digest, baseline.event_digest);
            assert_eq!(
                other.outcome.metrics.observed_rate_series(),
                baseline.outcome.metrics.observed_rate_series()
            );
            assert_pinned(&other, clean_pin(seed), &format!("{workers} workers"));
        }
    }
    // Passive replication shares the mandate machinery under a constant
    // reaction; pin it with faults live.
    let passive = PolicyKind::Passive { replicas: 1.0 };
    for workers in [1, 2, 8] {
        let out = run_policy(passive.clone(), workers, Some(all_supported_faults()), 3);
        assert_pinned(
            &out,
            (
                0x8209_1e3c_d2aa_8af6,
                45_736,
                793,
                793,
                [47, 25, 13, 10, 8, 7, 9, 1, 5, 6, 6, 4],
            ),
            &format!("passive, {workers} workers"),
        );
    }
}

/// The batch runner's cross-trial aggregate (rates, series, digests)
/// inherits the per-trial guarantee.
#[test]
fn batch_aggregate_is_worker_stable() {
    let source = ContactSource::homogeneous(64, 0.01, 1_000.0);
    let cfg = config(Some(all_supported_faults()));
    let policy = PolicyKind::qcr_default();
    let base = run_trials_sharded(&cfg, &source, &policy, 4, 99, Some(1)).unwrap();
    let wide = run_trials_sharded(&cfg, &source, &policy, 4, 99, Some(8)).unwrap();
    assert_eq!(base.event_digests, wide.event_digests);
    assert_eq!(base.fault_events, wide.fault_events);
    assert_eq!(base.contacts_processed, wide.contacts_processed);
    assert_eq!(base.aggregate.rates, wide.aggregate.rates);
    assert_eq!(
        base.aggregate.observed_series,
        wide.aggregate.observed_series
    );
    assert_eq!(
        base.aggregate.mean_final_replicas,
        wide.aggregate.mean_final_replicas
    );
    assert!(base.fault_events > 0);
}

/// Sharded and serial engines sample different realizations of the same
/// stochastic model, so their trial-averaged welfare must agree within
/// sampling noise (they share demand, utility, population, and μ).
#[test]
fn sharded_welfare_agrees_with_the_serial_engine() {
    let cfg = config(None);
    let source = ContactSource::homogeneous(96, 0.01, 1_500.0);
    let policy = PolicyKind::qcr_default();
    let serial = run_trials(&cfg, &source, &policy, 10, 1234);
    let sharded = run_trials_sharded(&cfg, &source, &policy, 10, 1234, Some(2)).unwrap();
    let (a, b) = (serial.mean_rate, sharded.aggregate.mean_rate);
    assert!(a > 0.0 && b > 0.0);
    let rel = (a - b).abs() / a.max(b);
    assert!(
        rel < 0.12,
        "serial {a:.4} vs sharded {b:.4} utility/min differ by {:.1}%",
        rel * 100.0
    );
}

/// Configurations the sharded engine cannot honor are rejected up front
/// with the dedicated error, not silently approximated.
#[test]
fn unsupported_configurations_error_cleanly() {
    let source = ContactSource::homogeneous(64, 0.01, 1_000.0);
    let churny = config(Some(FaultConfig {
        churn: Some(Churn {
            mean_up: 200.0,
            mean_down: 40.0,
        }),
        ..FaultConfig::default()
    }));
    let err = run_trials_sharded(&churny, &source, &PolicyKind::qcr_default(), 1, 7, Some(2))
        .unwrap_err();
    assert!(matches!(err, ConfigError::UnsupportedSharded { .. }));
    assert!(err.to_string().contains("sharded engine"), "{err}");
}
